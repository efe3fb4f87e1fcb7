package main

import (
	"fmt"
	"math"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"time"
)

// Run shape. A run of S seconds is S/roundLen rounds (half of them when
// traced); each round constructs the workload afresh, so the scheduling
// and memory layout a construction happens to get is sampled many times
// per run. An end-to-end metric reports the median of the run's calm rounds
// (see calmRounds), a per-layer metric the interquartile mean of all its
// rounds.
const (
	roundLen       = 1250 * time.Millisecond // untraced window of one round
	extraSetups    = 40                      // constructions timed for setup_s only
	warmup         = 250 * time.Millisecond  // load before each round's window
	warmProcessFor = time.Second             // unmeasured load before the first construction that counts
	firstPassWait  = 30 * time.Second        // deadline for a construction's first pass
	finalPassWait  = 10 * time.Second        // deadline for the final pass after load stops
)

// setupQuantile is the quantile of the timed constructions that setup_s
// reports. On inproc-faults the first pass meets an injected loss or
// corruption in about half the constructions and then waits for a
// resend, so its setup times fall into two modes about 2 ms apart; the
// lower quartile stays inside the faster mode, where a median would jump
// between the modes from run to run.
const setupQuantile = 0.25

// summed are the per-layer metrics that are totals over the rounds.
var summed = map[string]bool{
	"runtime.dropped_injections": true,
	"transport.decode_errors":    true,
	"transport.conn_drops":       true,
	"window.passes":              true,
	"window.await_samples":       true,
}

// round is one construction of the workload, measured on its own.
type round struct {
	setup        float64      // seconds from construction to the first pass on every participant
	a, b         windowResult // the untraced window; the traced window (traced rounds only)
	lat          [2]latHist   // Await latency in a and b
	calls, errs  int64        // Await calls and errors in a
	unexpected   int64        // Await errors no injected fault explains
	enter, leave latHist      // traced window
	send         latHist      // traced window: Link.Send* call durations
	sendCalls    int64        // traced window: Link.Send* calls
	recovery     []int64      // ns from each Reset landed in a to the first full pass after it
	unresolved   int          // Resets in a that no logged pass followed
	groups       []*groupRun
	metrics      map[string]float64 // the round's end-to-end and per-layer values
}

// constructionSeed is the Config.Seed of a run's k-th construction:
// each draws its own loss and corruption, so that whether a first pass
// meets a fault varies between constructions instead of between runs.
func constructionSeed(seed int64, k int) int64 {
	return derive(seed, uint64(1000+k))
}

// warmProcess loads one construction for warmProcessFor, unmeasured, so
// that the measured constructions find the process's threads, heap and
// caches in their steady state.
func warmProcess(w *workload, seed int64, log *passLog) error {
	r, _, err := construct(w, constructionSeed(seed, -1), nil, log)
	if err != nil {
		return err
	}
	r.start(math.MaxInt64)
	sleepCtx(r.ctx, warmProcessFor)
	r.stop(finalPassWait)
	err = r.check()
	r.close()
	return err
}

// construct builds the workload and runs its first pass on every
// participant, returning the system under load and the seconds that took.
// The benchmark's own bookkeeping between the two is not timed, and each
// construction starts from a collected heap.
func construct(w *workload, cfgSeed int64, tr *tracer, log *passLog) (*run, float64, error) {
	goruntime.GC()
	t0 := now()
	sys, err := w.build(cfgSeed, tr)
	if err != nil {
		return nil, 0, fmt.Errorf("build: %w", err)
	}
	t1 := now()
	r := newRun(w, sys, tr, log)
	t2 := now()
	r.start(1)
	r.wait(firstPassWait, "the first pass")
	setup := float64(t1-t0+now()-t2) / 1e9
	if err := r.err(); err != nil {
		r.close()
		return nil, 0, err
	}
	return r, setup, nil
}

// runRound constructs the workload, warms it up, measures the untraced
// window for d (then, with tr set, the traced window for td), stops it
// with a final pass and checks every output.
func runRound(w *workload, seed int64, k int, d, td time.Duration, tr *tracer, log *passLog, res *result) (*round, error) {
	cfgSeed := constructionSeed(seed, extraSetups+k)
	r, setup, err := construct(w, cfgSeed, tr, log)
	if err != nil {
		return nil, err
	}
	rd := &round{setup: setup, groups: r.groups}
	r.start(math.MaxInt64)
	sleepCtx(r.ctx, warmup)
	var inj *injector
	if w.faults {
		sched := faultSchedule(derive(seed, 2+uint64(k)), len(r.parts), d+td)
		res.note("round %d fault schedule: loss %.3g, corruption %.3g (Config.Seed %d); %d injections: %s",
			k+1, faultLoss, faultCorrupt, cfgSeed, len(sched), formatSchedule(sched))
		inj = newInjector(r.sys.barriers[0], sched)
		go inj.run(now())
	}
	rd.a = r.measureWindow(plainSlot, d)
	if tr != nil {
		tr.on.Store(true)
		rd.b = r.measureWindow(tracedSlot, td)
		tr.on.Store(false)
	}
	if inj != nil {
		inj.halt()
	}
	r.stop(finalPassWait)
	err = r.check()
	if err == nil && inj != nil {
		var st rtStats
		for _, b := range r.sys.barriers {
			st = st.add(statsOf(b.Stats()))
		}
		if landed := st.resetsInj + st.byzInj + st.droppedInj; landed != inj.calls {
			err = fmt.Errorf("%d injection calls, but Stats accounts for %d", inj.calls, landed)
		}
	}
	r.close() // after this no goroutine of the system writes what is read below
	rd.unexpected = r.unexpected.Load()

	for _, p := range r.parts {
		for i := range rd.lat {
			rd.lat[i].merge(p.lat[i])
		}
		rd.calls += p.calls[plainSlot]
		rd.errs += p.errs[plainSlot]
		rd.enter.merge(p.enter)
		rd.leave.merge(p.leave)
	}
	for _, ring := range r.sys.rings {
		for _, l := range ring.links {
			rd.send.merge(&l.hist)
			rd.sendCalls += l.calls
		}
	}
	if inj != nil {
		var faults []int64
		for _, t := range inj.resetAt {
			if t >= rd.a.from && t < rd.a.to {
				faults = append(faults, t)
			}
		}
		rd.recovery, rd.unresolved = recoveries(faults, log.spans[:min(r.parts[0].n, int64(len(log.spans)))])
	}
	rd.metrics = rd.layerMetrics()
	return rd, err
}

// layerMetrics computes the round's end-to-end and per-layer ratios from
// its untraced window; every per-pass ratio has the group passes as base.
func (rd *round) layerMetrics() map[string]float64 {
	a := &rd.a
	perPass := func(v float64) float64 { return v / a.passes }
	m := map[string]float64{
		"passes_per_s":                     a.passes / a.secs,
		"pass_p50_us":                      rd.lat[0].quantile(0.5) / 1e3,
		"pass_p99_us":                      rd.lat[0].quantile(0.99) / 1e3,
		"cpu_us_per_pass":                  perPass(float64((a.d.user + a.d.sys).Microseconds())),
		"tenant_passes_per_s_min":          slices.Min(a.groupPasses) / a.secs,
		"runtime.sends_per_pass":           perPass(float64(a.st.sends)),
		"runtime.drops_per_pass":           perPass(float64(a.st.drops)),
		"runtime.rejected_per_pass":        perPass(float64(a.st.rejected)),
		"runtime.resets_per_pass":          perPass(float64(a.st.resets)),
		"runtime.wasted_per_pass":          perPass(float64(a.st.wasted)),
		"runtime.dropped_injections":       float64(a.st.droppedInj),
		"failed_frac":                      float64(rd.errs) / float64(rd.calls),
		"goruntime.sched_wait_us_p50":      a.d.schedP50 * 1e6,
		"goruntime.sched_wait_us_p99":      a.d.schedP99 * 1e6,
		"goruntime.mutex_wait_us_per_pass": perPass(a.d.mutexWait * 1e6),
		"goruntime.allocs_per_pass":        perPass(float64(a.d.allocs)),
		"goruntime.gc_cpu_frac":            a.d.gcCPUFrac,
		"kernel.vcsw_per_pass":             perPass(float64(a.d.vcsw)),
		"kernel.ivcsw_per_pass":            perPass(float64(a.d.ivcsw)),
		"kernel.syscr_per_pass":            perPass(float64(a.d.syscr)),
		"kernel.syscw_per_pass":            perPass(float64(a.d.syscw)),
		"kernel.sys_cpu_us_per_pass":       perPass(float64(a.d.sys.Microseconds())),
		"kernel.user_cpu_us_per_pass":      perPass(float64(a.d.user.Microseconds())),
		"transport.frames_sent_per_pass":   perPass(float64(a.tcp.FramesSent)),
		"transport.frames_recv_per_pass":   perPass(float64(a.tcp.FramesRecv)),
		"transport.decode_errors":          float64(a.tcp.DecodeErrors),
		"transport.conn_drops":             float64(a.tcp.ConnDrops),
		"groups.pass_spread":               passSpread(rd.groups, a.groupPasses),
		"window.passes":                    a.passes,
		"window.await_samples":             float64(rd.lat[0].n),
		"host.steal_frac":                  a.d.stealFrac,
		"transport.frames_per_write":       0,
		"runtime.wasted_per_fault_landed":  float64(a.st.resetsInj + a.st.byzInj),
		"runtime.wasted_per_fault_wasted":  float64(a.st.wasted),
	}
	if a.d.syscw > 0 {
		m["transport.frames_per_write"] = float64(a.tcp.FramesSent) / float64(a.d.syscw)
	}
	return m
}

// calmSteal is the steal share up to which a round counts as calm
// whatever the rest of the run did: rounds at or below it read the same
// p99 and pass rate as rounds without steal.
const calmSteal = 0.01

// calmRounds returns the rounds whose window lost at most calmSteal of
// the machine's CPU time to the hypervisor (steal), or, when fewer than a
// quarter of them did, the quarter that lost least. On a shared host,
// steal comes in episodes of seconds to minutes that can cut a round's
// pass rate by 40%, multiply its p99 several times (a vCPU descheduled
// for milliseconds stalls every participant waiting on the goroutine it
// was running) and raise its CPU per pass. No change to the program can
// cause or prevent steal, so setting the disturbed rounds aside hides no
// cost of the program, and within a run it keeps an episode that covers
// part of the run out of the end-to-end figures.
func calmRounds(rds []*round) []*round {
	steal := make([]float64, len(rds))
	for i, rd := range rds {
		steal[i] = rd.a.d.stealFrac
	}
	limit := max(quartile(steal, 0.25), calmSteal)
	var calm []*round
	for _, rd := range rds {
		if rd.a.d.stealFrac <= limit {
			calm = append(calm, rd)
		}
	}
	return calm
}

// bench runs one workload and reports its metrics: the end-to-end ones
// untraced, the per-layer ones traced.
func bench(w *workload, seed int64, secs time.Duration, traced bool, traceDir string) (*result, error) {
	res := &result{metrics: map[string]float64{}}
	plain := secs // untraced measurement, split over the rounds
	if traced {
		plain = secs / 2
	}
	rounds := max(1, int(plain/roundLen))
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	var log *passLog
	if w.faults {
		log = newPassLog(int((plain+secs).Seconds()*25000) + 50000)
	}
	if err := warmProcess(w, seed, log); err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}

	setupTimes := make([]float64, 0, extraSetups+rounds)
	for i := 0; i < extraSetups; i++ {
		r, setup, err := construct(w, constructionSeed(seed, i), nil, log)
		if err != nil {
			return res, err
		}
		r.close()
		setupTimes = append(setupTimes, setup)
	}
	var rds []*round
	for k := 0; k < rounds; k++ {
		var t *tracer
		var td time.Duration
		if traced && k == rounds-1 {
			t, td = tr, secs-plain // the last round carries the traced window
		}
		rd, err := runRound(w, seed, k, plain/time.Duration(rounds), td, t, log, res)
		if rd != nil {
			res.attempted += rd.calls
			res.failed += rd.unexpected
		}
		if err != nil {
			return res, fmt.Errorf("round %d: %w", k+1, err)
		}
		rds = append(rds, rd)
		setupTimes = append(setupTimes, rd.setup)
	}
	res.set("setup_s", quartile(setupTimes, setupQuantile))

	perRound := map[string][]float64{}
	for _, rd := range rds {
		for name, v := range rd.metrics {
			perRound[name] = append(perRound[name], v)
		}
	}
	calm := calmRounds(rds)
	for _, d := range endToEnd {
		if d.name == "setup_s" {
			continue
		}
		vs := make([]float64, len(calm))
		for i, rd := range calm {
			vs[i] = rd.metrics[d.name]
		}
		res.set(d.name, median(vs))
	}
	for name, vs := range perRound {
		if _, done := res.metrics[name]; done {
			continue
		}
		if summed[name] {
			var t float64
			for _, v := range vs {
				t += v
			}
			res.set(name, t)
		} else {
			res.set(name, iqm(vs))
		}
	}
	res.note("%d rounds of %.2fs, %d of them calm; per round: passes/s %s; p50 us %s; p99 us %s; cpu us/pass %s; steal %s",
		len(rds), plain.Seconds()/float64(rounds), len(calm), fmtList(perRound["passes_per_s"]), fmtList(perRound["pass_p50_us"]),
		fmtList(perRound["pass_p99_us"]), fmtList(perRound["cpu_us_per_pass"]), fmtList(perRound["host.steal_frac"]))
	var lat latHist
	for _, rd := range rds {
		lat.merge(&rd.lat[0])
	}
	res.note("pass latency over all rounds: %s; %.0f passes counted once per group (the base of every per-pass ratio)",
		lat.summary(), res.metrics["window.passes"])
	res.note("setup: lower quartile of %d constructions %.6fs (all: %s)", len(setupTimes), res.metrics["setup_s"], fmtList(setupTimes))
	if len(rds[0].a.groupPasses) > 1 {
		res.note("tenant pass rates in round 1 (1/s): %s", fmtList(scale(rds[0].a.groupPasses, 1/rds[0].a.secs)))
	}

	if w.faults {
		var rec latHist
		unresolved := 0
		var landed, wasted float64
		for _, rd := range rds {
			for _, d := range rd.recovery {
				rec.record(d)
			}
			unresolved += rd.unresolved
			landed += float64(rd.a.st.resetsInj + rd.a.st.byzInj)
			wasted += float64(rd.a.st.wasted)
		}
		res.set("recovery_us_p50", rec.quantile(0.5)/1e3)
		res.set("recovery_us_p95", rec.quantile(0.95)/1e3)
		res.set("recovery.samples", float64(rec.n))
		res.set("wasted_per_fault", wasted/landed)
		res.note("%.0f Reset and Byz injections landed, %.0f dropped; %.0f wasted instances; recovery after Reset: %s (%d unresolved)",
			landed, res.metrics["runtime.dropped_injections"], wasted, rec.summary(), unresolved)
	} else {
		for _, name := range []string{"recovery_us_p50", "recovery_us_p95", "recovery.samples", "wasted_per_fault"} {
			res.set(name, 0)
		}
	}

	if traced {
		last := rds[len(rds)-1]
		res.set("runtime.enter_us_p50", last.enter.quantile(0.5)/1e3)
		res.set("runtime.leave_us_p50", last.leave.quantile(0.5)/1e3)
		res.set("transport.send_us_p50", last.send.quantile(0.5)/1e3)
		res.set("transport.send_calls_per_pass", float64(last.sendCalls)/last.b.passes)
		for _, m := range microTimings(seed, tr.newRecorder()) {
			res.set(m.metric, m.nsOp)
		}
		rateA, rateB := last.a.passes/last.a.secs, last.b.passes/last.b.secs
		p50A, p50B := last.lat[0].quantile(0.5), last.lat[1].quantile(0.5)
		res.set("trace.overhead_passes_per_s_frac", (rateA-rateB)/rateA)
		res.set("trace.overhead_pass_p50_frac", (p50B-p50A)/p50A)
		kept, dropped := tr.counts()
		res.set("trace.spans", float64(kept))
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
		if err := tr.write(path); err != nil {
			return res, fmt.Errorf("write spans: %w", err)
		}
		res.note("traced window (last round): %.3fs, %.1f passes/s against %.1f untraced; await %s; enter %s; leave %s; send %s",
			last.b.secs, rateB, rateA, last.lat[1].summary(), last.enter.summary(), last.leave.summary(), last.send.summary())
		res.note("spans: %d kept, %d beyond the per-recorder cap, written to %s", kept, dropped, path)
	}
	return res, nil
}
