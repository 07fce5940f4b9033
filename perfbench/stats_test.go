package main

import (
	"math"
	"testing"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// The tail is the highest ladder percentile with at least minBeyond
// samples beyond it; with too few samples for even the median, the
// maximum.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n   int
		pct float64
	}{
		{19, 100}, {20, 50}, {99, 75}, {100, 90}, {999, 95},
		{1000, 99}, {2000, 99.5}, {100000, 99.99},
	} {
		s := ramp(c.n)
		got := tailOf(s)
		if got.pct != c.pct || got.n != c.n {
			t.Errorf("n=%d: percentile %v over %d samples, want %v", c.n, got.pct, got.n, c.pct)
			continue
		}
		beyond := 0
		for _, v := range s {
			if v > got.value {
				beyond++
			}
		}
		if c.pct < 100 && beyond < minBeyond {
			t.Errorf("n=%d: p%v = %v has %d samples beyond it, want >= %d", c.n, got.pct, got.value, beyond, minBeyond)
		}
	}
	if got := tailOf(nil); got != (tail{}) {
		t.Errorf("empty samples: %+v", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(data, n=4),
// which an external check applies to the same runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{ramp(10), 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // Python extrapolates below two interior points
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	tr.spans = []spanRec{
		{ID: 1, Name: "parent", StartMS: 0, EndMS: 10},
		{ID: 2, Parent: 1, Name: "a", StartMS: 1, EndMS: 3},
		{ID: 3, Parent: 1, Name: "b", StartMS: 2, EndMS: 5},
		{ID: 4, Parent: 1, Name: "late", StartMS: 9, EndMS: 12}, // clipped to the parent
	}
	self := tr.selfTimes()
	if want := 10.0 - 4 - 1; math.Abs(self[0]-want) > 1e-9 {
		t.Errorf("parent self time %v, want %v", self[0], want)
	}
	if self[3] != 3 {
		t.Errorf("leaf self time %v, want its duration 3", self[3])
	}
}

func TestStageName(t *testing.T) {
	for in, want := range map[string]string{"engine:ida*": "engine-ida", "engine:astar": "engine-astar", "cache-wait": "cache-wait"} {
		if got := stageName(in); got != want {
			t.Errorf("stageName(%q) = %q, want %q", in, got, want)
		}
	}
}
