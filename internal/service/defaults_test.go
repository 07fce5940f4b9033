package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rbpebble/internal/obs"
)

// TestDefaults pins the configuration a node runs with when given
// Config{} — the one rbserve starts from and the benchmark measures —
// by reading what a running server actually uses.
func TestDefaults(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	c := s.cfg
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"CacheSize", c.CacheSize, 256},
		{"DefaultDeadline", c.DefaultDeadline, 2 * time.Second},
		{"MaxDeadline", c.MaxDeadline, 30 * time.Second},
		{"MaxNodes", c.MaxNodes, 100000},
		{"MaxBodyBytes", c.MaxBodyBytes, int64(64 << 20)},
		{"GracePeriod", c.GracePeriod, 10 * time.Second},
		{"MaxBatchItems", c.MaxBatchItems, 256},
		{"MaxTableBytes", c.MaxTableBytes, int64(0)},
		{"RefinerInterval", c.RefinerInterval, time.Duration(0)},
		{"fast lane workers", s.lanes.fast.workers, 4},
		{"heavy lane workers", s.lanes.heavy.workers, 2},
		{"fast lane queue", cap(s.lanes.fast.tasks), 256},
		{"heavy lane queue", cap(s.lanes.heavy.tasks), 64},
	} {
		if f.got != f.want {
			t.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	if d := DefaultConfig(); d.CacheSize != c.CacheSize || d.DefaultDeadline != c.DefaultDeadline ||
		d.MaxDeadline != c.MaxDeadline || d.MaxNodes != c.MaxNodes || d.MaxBodyBytes != c.MaxBodyBytes ||
		d.GracePeriod != c.GracePeriod || d.MaxBatchItems != c.MaxBatchItems ||
		d.FastLaneWorkers != c.FastLaneWorkers || d.HeavyLaneWorkers != c.HeavyLaneWorkers {
		t.Errorf("DefaultConfig() = %+v, differs from what New(Config{}) runs", d)
	}

	// The fast lane takes uncached work whose budget is at most 150ms.
	items := []reqItem{{key: "at-budget", deadline: 150 * time.Millisecond}, {key: "over-budget", deadline: 151 * time.Millisecond}}
	units := s.admit(context.Background(), items, time.Now(), func(*unit) {})
	for i, want := range []string{laneFast, laneHeavy} {
		if s.await(units[i]); units[i].lane != want {
			t.Errorf("uncached unit with a %s budget ran on the %s lane, want %s", units[i].deadline, units[i].lane, want)
		}
	}

	// The trace and telemetry rings keep the 256 and 512 newest entries.
	for i := 0; i < 300; i++ {
		s.recorder.Register(&obs.Trace{ID: fmt.Sprint(i)})
	}
	if n := s.recorder.Len(); n != 256 {
		t.Errorf("trace ring holds %d traces, want 256", n)
	}
	for i := 0; i < 600; i++ {
		s.tel.Append(obs.SolveRecord{})
	}
	if n := len(s.tel.Recent(0)); n != 512 {
		t.Errorf("telemetry ring holds %d records, want 512", n)
	}

	// An enabled refiner escalates cached intervals up to tier 12.
	r := New(Config{RefinerInterval: time.Hour})
	defer r.Close()
	if st, ok := r.RefinerStatus(); !ok || st.MaxTier != 12 {
		t.Errorf("refiner status = %+v (enabled %t), want tier ceiling 12", st, ok)
	}
}
