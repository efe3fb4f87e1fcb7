package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want int64
		ok   bool
	}{
		{1000, 99000, true}, // exactly ten samples beyond p99
		{999, 90000, true},
		{100, 90000, true},
		{99, 50000, true},
		{20, 50000, true},
		{19, 0, false},
		{100000, 99990, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestLatHistQuantile(t *testing.T) {
	var h latHist
	for us := int64(1); us <= 1000; us++ {
		h.record(us * 1000)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500e3}, {0.99, 990e3}, {0.01, 10e3}} {
		if got := h.quantile(c.q); math.Abs(got-c.want)/c.want > 0.01 {
			t.Errorf("quantile(%v) = %v, want %v within 1%%", c.q, got, c.want)
		}
	}
	if h.n != 1000 {
		t.Errorf("n = %d, want 1000", h.n)
	}
	for _, v := range []int64{0, 1, 255, 256, 257, 511, 512, 1 << 35} {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d lands in bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

func TestIQM(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3}, 2.5},           // the lowest and highest quarter drop
		{[]float64{9, 1, 2, 3, 4, 5, 6, 7}, 4.5}, // two drop from each end
	} {
		if got := iqm(c.xs); got != c.want {
			t.Errorf("iqm(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuartile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {1, 10}} {
		if got := quartile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quartile([]float64{4}, 0.25); got != 4 {
		t.Errorf("quartile of one value = %v, want 4", got)
	}
}

func TestCalmRounds(t *testing.T) {
	for _, c := range []struct {
		steal []float64
		want  []int // indices of the calm rounds
	}{
		{[]float64{0, 0, 0, 0}, []int{0, 1, 2, 3}},             // no steal: every round counts
		{[]float64{0, 0.01, 0.1, 0.004}, []int{0, 1, 3}},       // up to 1% counts as calm
		{[]float64{0.1, 0.2, 0.05, 0.3, 0.08}, []int{2, 4}},    // an episode over the whole run: the least stolen quarter
		{[]float64{0.02, 0.04, 0.03, 0.08, 0.05}, []int{0, 2}}, // the quarter's boundary round counts
	} {
		var rds []*round
		for _, s := range c.steal {
			rd := &round{}
			rd.a.d.stealFrac = s
			rds = append(rds, rd)
		}
		var got []int
		for _, rd := range calmRounds(rds) {
			got = append(got, slices.Index(rds, rd))
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("calmRounds(steal %v) kept rounds %v, want %v", c.steal, got, c.want)
		}
	}
}

func TestPhaseSeq(t *testing.T) {
	feed := func(phases ...int) *phaseSeq {
		s := &phaseSeq{nPhases: 4}
		for _, ph := range phases {
			s.observe(ph)
		}
		return s
	}
	if s := feed(2, 3, 0, 1, 2); s.bad != 0 {
		t.Errorf("consecutive phases with wrap-around rejected: %s", s.badMsg)
	}
	if s := feed(0, 1, 3); s.bad != 1 {
		t.Errorf("skipped phase: bad = %d, want 1", s.bad)
	}
	if s := feed(0, 1, 1, 2); s.bad == 0 {
		t.Error("duplicated phase accepted")
	}
	if err := agree([]*phaseSeq{feed(1, 2, 3), feed(1, 2, 3)}); err != nil {
		t.Errorf("identical sequences disagree: %v", err)
	}
	if err := agree([]*phaseSeq{feed(1, 2, 3), feed(1, 2)}); err == nil {
		t.Error("sequences of different length agree")
	}
	if err := agree([]*phaseSeq{feed(1, 2), feed(2, 3)}); err == nil {
		t.Error("sequences from different phases agree")
	}
	if err := agree([]*phaseSeq{feed(1, 2, 3), feed(1, 3, 0)}); err == nil {
		t.Error("a sequence with a skipped phase agrees")
	}
}

func TestRecoveries(t *testing.T) {
	passes := []passSpan{{10, 12}, {20, 25}, {30, 31}, {40, 48}}
	// A fault at 15 is followed by pass 1 (first return 20, last 25);
	// one at exactly 20 only by pass 2, since pass 1's earliest return is
	// not after it; one at 21 also by pass 2; none follows 45.
	got, unresolved := recoveries([]int64{15, 20, 21, 45}, passes)
	want := []int64{10, 11, 10}
	if len(got) != len(want) || unresolved != 1 {
		t.Fatalf("recoveries = %v, %d unresolved; want %v, 1", got, unresolved, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("recovery %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestFaultScheduleDeterministic(t *testing.T) {
	a := formatSchedule(faultSchedule(7, 32, time.Second))
	b := formatSchedule(faultSchedule(7, 32, time.Second))
	c := formatSchedule(faultSchedule(8, 32, time.Second))
	if a != b || a == c || a == "" {
		t.Errorf("schedule is not a function of the seed:\n%s\n%s\n%s", a, b, c)
	}
}

// TestSmoke runs every workload briefly, traced and untraced: the output
// checks must pass and every catalogued metric must be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := bench(w, 1, 2*time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.attempted < 1 {
				t.Errorf("%s: no Await attempted", w.name)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := res.metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: %s not reported", w.name, traced, d.name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// lists workloads this program runs, in its order, and exactly the
// metrics it reports. BENCHMARK.json may leave workloads out: it lists
// the ones whose runs agree within its bounds on a shared host (see
// README.md).
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(spec.Workloads))
	}
	next := 0 // index into the program's workloads
	for _, sw := range spec.Workloads {
		for next < len(workloads) && workloads[next].name != sw.Name {
			next++
		}
		if next == len(workloads) {
			t.Errorf("BENCHMARK.json workload %q is not one of the program's, or is out of order", sw.Name)
			break
		}
		next++
	}
	compare := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if g, w := got[i], want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}
