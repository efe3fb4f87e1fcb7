// Command perfbench is the repository's end-to-end benchmark. It builds
// one named workload of fault-tolerant barriers in this process, drives
// it with a closed loop — every participant calls Await again as soon as
// the previous call returns — for a fixed time, checks that every pass
// was correct, and prints every metric by name with its unit. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"passes_per_s": {"value": 6012.7, "unit": "1/s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run is split into an untraced and a traced half and the metrics are
// the per-layer ones, including the tracing overhead. BENCHMARK.json at
// the repository root lists both sets, the gated workloads and the bounds.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload inproc-ring --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the barrier sees, reported by every
// untraced run.
var endToEnd = []metricDef{
	{"passes_per_s", "1/s", "higher"},
	{"pass_p50_us", "us", "lower"},
	{"pass_p99_us", "us", "lower"},
	{"cpu_us_per_pass", "us", "lower"},
	{"tenant_passes_per_s_min", "1/s", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics, reported by every traced run.
// A layer a workload does not use reads 0.
var perLayer = []metricDef{
	{"runtime.enter_us_p50", "us", "lower"},
	{"runtime.leave_us_p50", "us", "lower"},
	{"runtime.sends_per_pass", "1/pass", "lower"},
	{"goruntime.sched_wait_us_p50", "us", "lower"},
	{"goruntime.sched_wait_us_p99", "us", "lower"},
	{"kernel.vcsw_per_pass", "1/pass", "lower"},
	{"kernel.ivcsw_per_pass", "1/pass", "lower"},
	{"runtime.drops_per_pass", "1/pass", "lower"},
	{"runtime.rejected_per_pass", "1/pass", "lower"},
	{"runtime.resets_per_pass", "1/pass", "lower"},
	{"runtime.wasted_per_pass", "1/pass", "lower"},
	{"runtime.dropped_injections", "count", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"recovery_us_p50", "us", "lower"},
	{"recovery_us_p95", "us", "lower"},
	{"recovery.samples", "count", "higher"},
	{"wasted_per_fault", "instances", "lower"},
	{"codec.append_state_ns", "ns", "lower"},
	{"codec.decode_state_ns", "ns", "lower"},
	{"codec.append_up_ns", "ns", "lower"},
	{"codec.decode_up_ns", "ns", "lower"},
	{"codec.read_frame_ns", "ns", "lower"},
	{"runtime.checksum_ns", "ns", "lower"},
	{"transport.send_us_p50", "us", "lower"},
	{"transport.send_calls_per_pass", "1/pass", "lower"},
	{"transport.frames_sent_per_pass", "1/pass", "lower"},
	{"transport.frames_recv_per_pass", "1/pass", "lower"},
	{"transport.frames_per_write", "ratio", "higher"},
	{"transport.decode_errors", "count", "lower"},
	{"transport.conn_drops", "count", "lower"},
	{"goruntime.mutex_wait_us_per_pass", "us/pass", "lower"},
	{"kernel.syscr_per_pass", "1/pass", "lower"},
	{"kernel.syscw_per_pass", "1/pass", "lower"},
	{"kernel.sys_cpu_us_per_pass", "us/pass", "lower"},
	{"kernel.user_cpu_us_per_pass", "us/pass", "lower"},
	{"groups.pass_spread", "ratio", "lower"},
	{"core.leader_update_ns", "ns", "lower"},
	{"core.follower_update_ns", "ns", "lower"},
	{"hw.leader_step_ns", "ns", "lower"},
	{"hw.follower_step_ns", "ns", "lower"},
	{"obsv.observe_ns", "ns", "lower"},
	{"goruntime.allocs_per_pass", "1/pass", "lower"},
	{"goruntime.gc_cpu_frac", "ratio", "lower"},
	{"trace.overhead_passes_per_s_frac", "ratio", "lower"},
	{"trace.overhead_pass_p50_frac", "ratio", "lower"},
	{"trace.spans", "count", "higher"},
	{"window.passes", "count", "higher"},
	{"window.await_samples", "count", "higher"},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", `workload name, or "all"`)
	seed := flag.Int64("seed", 1, "derives every Config.Seed and the fault schedule")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1: split the window into an untraced and a traced half and report the per-layer metrics")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()

	var ws []*workload
	if *name == "all" {
		ws = workloads
	} else if w := findWorkload(*name); w != nil {
		ws = []*workload{w}
	}
	if len(ws) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (all")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, ", %s", w.name)
		}
		fmt.Fprintln(os.Stderr, "), --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}

	out := resultJSON{Correct: true, Metrics: map[string]metricJSON{}}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	for _, w := range ws {
		res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %v\n", w.name, err)
			out = resultJSON{Correct: false, Metrics: map[string]metricJSON{}}
			if res != nil {
				out.Attempted, out.Failed = res.attempted, res.failed
			}
			printJSON(out)
			os.Exit(1)
		}
		out.Attempted += res.attempted
		out.Failed += res.failed
		fmt.Printf("== %s (seed %d, %ds, trace %d)\n", w.name, *seed, *seconds, *trace)
		for _, line := range res.report {
			fmt.Println("  " + line)
		}
		for _, d := range defs {
			key := d.name
			if len(ws) > 1 {
				key = w.name + "/" + d.name
			}
			v := res.metrics[d.name]
			fmt.Printf("  %-34s %14.4f %s\n", d.name, v, d.unit)
			out.Metrics[key] = metricJSON{v, d.unit}
		}
	}
	printJSON(out)
}

func printJSON(out resultJSON) {
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// result is one workload's measurement.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	report            []string // human-readable context: bases, samples, schedule
}

func (r *result) note(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

func (r *result) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = v
}

// derive maps the seed argument to independent per-purpose seeds.
func derive(seed int64, purpose uint64) int64 {
	z := uint64(seed) + purpose*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// passSpread is the largest max ÷ min pass count among tenants of equal
// shape (0 when no two tenants share a shape).
func passSpread(gs []*groupRun, passes []float64) float64 {
	spread := 0.0
	for i, g := range gs {
		lo, hi, k := passes[i], passes[i], 0
		for j, h := range gs {
			if h.shape == g.shape {
				lo, hi, k = min(lo, passes[j]), max(hi, passes[j]), k+1
			}
		}
		if k > 1 && lo > 0 {
			spread = max(spread, hi/lo)
		}
	}
	return spread
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.4g", x)
	}
	return s
}
