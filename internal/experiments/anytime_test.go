package experiments

import (
	"testing"
	"time"
)

// TestAblationAnytime checks every row carries a coherent certificate
// and the control instance closes its gap. A short top deadline keeps
// the test fast; the certified-interval invariants hold at any scale.
//
// A positive lower bound is required only on the top rung: fft(3)
// R=3's root bound is 0, so a sub-millisecond budget can expire before
// any engine pops a state, and [0, upper] is then the correct (if
// uninformative) certificate.
func TestAblationAnytime(t *testing.T) {
	old := AnytimeDeadline
	AnytimeDeadline = 60 * time.Millisecond
	defer func() { AnytimeDeadline = old }()

	rep := AblationAnytime()
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rep.Rows))
	}
	const fft3R3Optimum = 31
	const top = 2 // the AnytimeDeadline rung
	for i := 0; i <= top; i++ {
		lo := cellInt(t, rep, i, "lower")
		hi := cellInt(t, rep, i, "upper")
		if lo < 0 || lo > fft3R3Optimum || hi < fft3R3Optimum {
			t.Fatalf("row %d: interval [%d, %d] is not a certificate for optimum %d", i, lo, hi, fft3R3Optimum)
		}
		if i == top && lo <= 0 {
			t.Fatalf("row %d: top-rung interval [%d, %d] certifies nothing", i, lo, hi)
		}
	}
	last := len(rep.Rows) - 1
	if cell(t, rep, last, "optimal") != "true" {
		t.Fatalf("control instance did not close: %v", rep.Rows[last])
	}
	if lo, hi := cellInt(t, rep, last, "lower"), cellInt(t, rep, last, "upper"); lo != hi {
		t.Fatalf("control interval [%d, %d] not closed", lo, hi)
	}
}
