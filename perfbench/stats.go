package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; a percentile resting on fewer samples is noise.
const minBeyond = 10

// tailLadderBP lists, highest first and in basis points, the percentiles a
// tail latency may be reported at.
var tailLadderBP = []int{9999, 9995, 9990, 9950, 9900, 9500, 9000, 7500, 5000}

// tail is a tail latency with the percentile it was taken at and the
// number of samples it rests on.
type tail struct {
	value, pct float64
	n          int
}

// tailOf returns the highest ladder percentile of samples (nearest rank)
// that has at least minBeyond samples beyond it. With fewer than
// 2*minBeyond samples no percentile qualifies, and the maximum is reported
// as the 100th percentile.
func tailOf(samples []float64) tail {
	s := sorted(samples)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	for _, bp := range tailLadderBP {
		rank := nearestRank(bp, n)
		if n-rank >= minBeyond {
			return tail{value: s[rank-1], pct: float64(bp) / 100, n: n}
		}
	}
	return tail{value: s[n-1], pct: 100, n: n}
}

// nearestRank is the 1-based rank of the bp-basis-point percentile of n
// samples, in integer arithmetic so that 99.5% of 2000 is exactly 1990.
func nearestRank(bp, n int) int {
	return max((bp*n+9999)/10000, 1)
}

// percentile returns the nearest-rank percentile (bp in basis points) of
// samples, or 0 when there are none.
func percentile(samples []float64, bp int) float64 {
	s := sorted(samples)
	if len(s) == 0 {
		return 0
	}
	return s[nearestRank(bp, len(s))-1]
}

// quartiles returns the quartile cut points of values by the "exclusive"
// method of Python's statistics.quantiles(values, n=4), so spreads
// computed here match an external check of the same runs.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := sorted(values)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median is the middle quartile cut point, which is the ordinary median.
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

func sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

func mean(values []float64) float64 {
	return ratio(sum(values), float64(len(values)))
}

// geomean is the geometric mean of positive values.
func geomean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var s float64
	for _, v := range values {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(values)))
}

// ratio is a/b, or 0 when b is 0: the rate of something that never
// happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overhead is a/b - 1, the relative extra cost of a over b, or 0 when
// either side was not measured.
func overhead(a, b float64) float64 {
	if a == 0 || b == 0 {
		return 0
	}
	return a/b - 1
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
