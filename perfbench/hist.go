package main

import (
	"fmt"
	"math/bits"
)

// latHist is a log-linear histogram of nanosecond durations: exact below
// 256 ns, then 128 sub-buckets per power of two (at most 0.8% relative
// bucket width). Recording is an index computation and an increment — no
// allocation and no lock — so each recording goroutine owns one and they
// are merged after the run.
type latHist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	subBits     = 7
	subCount    = 1 << subBits
	maxBits     = 36 // durations from 2^36 ns (69 s) on share the last bucket
	histBuckets = (maxBits-subBits)*subCount + subCount
)

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := min(uint64(v), 1<<maxBits-1)
	if u < 2*subCount {
		return int(u)
	}
	shift := bits.Len64(u) - (subBits + 1)
	return shift*subCount + int(u>>shift)
}

// bucketRange returns the lowest value of bucket i and the bucket width.
func bucketRange(i int) (lo, width float64) {
	if i < 2*subCount {
		return float64(i), 1
	}
	shift := i/subCount - 1
	m := i - shift*subCount
	return float64(uint64(m) << shift), float64(uint64(1) << shift)
}

func (h *latHist) record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

// merge adds o's samples; a nil o adds none.
func (h *latHist) merge(o *latHist) {
	if o == nil {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q < 1) in nanoseconds,
// interpolated linearly inside its bucket so that the value keeps all its
// digits instead of snapping to bucket edges. It returns 0 when empty.
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/fc
		}
		cum += fc
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// tailLevels are the candidate tail percentiles, in parts per 100000.
var tailLevels = []int64{50000, 90000, 99000, 99900, 99990, 99999}

// tailPercentile returns the highest candidate percentile that has at
// least ten samples beyond it out of n, as parts per 100000 (99000 is
// p99), and false when even the median lacks ten samples beyond it.
// Integer arithmetic keeps the boundary exact: p99 of 1000 samples has
// exactly ten beyond it and qualifies.
func tailPercentile(n int64) (int64, bool) {
	best, ok := int64(0), false
	for _, lv := range tailLevels {
		if n*(100000-lv) >= 10*100000 {
			best, ok = lv, true
		}
	}
	return best, ok
}

// pctName renders a tail level as "p99", "p99.9", ...
func pctName(lv int64) string {
	s := fmt.Sprintf("%g", float64(lv)/1000)
	return "p" + s
}

// summary renders a latency histogram as its sample count, median, p99
// and the highest percentile with ten samples beyond it, in microseconds.
func (h *latHist) summary() string {
	if h.n == 0 {
		return "n=0"
	}
	s := fmt.Sprintf("n=%d p50=%.1fus p99=%.1fus", h.n, h.quantile(0.5)/1e3, h.quantile(0.99)/1e3)
	if lv, ok := tailPercentile(int64(h.n)); ok && lv > 99000 {
		s += fmt.Sprintf(" %s=%.1fus", pctName(lv), h.quantile(float64(lv)/100000)/1e3)
	}
	return s
}
