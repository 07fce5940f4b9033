package obs

import (
	"fmt"
	"os"
	"strconv"
	"sync"
)

// RotatingWriter is a size-rotated append-only file sink for the JSONL
// event log (rbserve -event-log): when the current file would outgrow
// maxBytes, it is renamed to path.1 (shifting path.1 -> path.2 and so
// on, dropping the oldest beyond keep) and a fresh file is opened. A
// long-running node's event stream is unbounded by construction;
// rotation bounds its disk footprint instead of trusting an operator
// to remember logrotate. With maxBytes <= 0 it is a plain append sink,
// so rbserve opens the event log through it either way. Safe for
// concurrent use.
type RotatingWriter struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	keep     int
	f        *os.File
	size     int64
}

// NewRotatingWriter opens (or appends to) path with rotation at
// maxBytes, keeping up to keep rotated files (keep < 1 is clamped to
// 1). maxBytes <= 0 disables rotation — the writer degrades to a plain
// append sink.
func NewRotatingWriter(path string, maxBytes int64, keep int) (*RotatingWriter, error) {
	if keep < 1 {
		keep = 1
	}
	w := &RotatingWriter{path: path, maxBytes: maxBytes, keep: keep}
	if err := w.open(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *RotatingWriter) open() error {
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	w.f, w.size = f, st.Size()
	return nil
}

// Write appends p, rotating first when the write would push the
// current file past maxBytes. A single line larger than maxBytes still
// lands whole in a fresh file — lines are never split across files.
func (w *RotatingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.maxBytes > 0 && w.size > 0 && w.size+int64(len(p)) > w.maxBytes {
		if err := w.rotate(); err != nil {
			return 0, fmt.Errorf("rotate %s: %w", w.path, err)
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

// rotate shifts the kept generations up by one and reopens a fresh
// current file. Rename errors for missing older generations are
// ignored (the chain naturally has gaps until it fills).
func (w *RotatingWriter) rotate() error {
	w.f.Close()
	os.Remove(w.path + "." + strconv.Itoa(w.keep))
	for i := w.keep - 1; i >= 1; i-- {
		os.Rename(w.path+"."+strconv.Itoa(i), w.path+"."+strconv.Itoa(i+1))
	}
	if err := os.Rename(w.path, w.path+".1"); err != nil {
		return err
	}
	return w.open()
}

// Close closes the current file.
func (w *RotatingWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
