package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/transport"
)

// epoch anchors now(); time.Since reads the monotonic clock.
var epoch = time.Now()

// now returns monotonic nanoseconds since the benchmark started.
func now() int64 { return int64(time.Since(epoch)) }

// Participants record into the slot current when their Await starts:
// the untraced window, the traced window (which splits Await into Enter
// and Leave), or none.
const (
	noSlot     int32 = -1
	plainSlot  int32 = 0
	tracedSlot int32 = 1
)

// participant is one closed-loop goroutine: it calls Await again as soon
// as the previous call returns.
type participant struct {
	g      *groupRun
	b      *runtime.Barrier
	id     int
	leader bool // member 0 decides the group's last pass at stop

	n      int64        // successful Awaits (owned by the goroutine)
	done   atomic.Int64 // n, published for window-edge reads
	resets int64        // ErrReset returns (masked faults: redo and retry)
	seq    phaseSeq

	// Per slot, read after the goroutine exits. The histograms are
	// allocated when their window starts (see measureWindow), so that a
	// construction the benchmark only times does not pay for them.
	calls [2]int64
	errs  [2]int64
	lat   [2]*latHist // successful Await durations

	enter, leave *latHist // traced window only
	rec          *recorder
}

// passLog records, per pass of one group, the instants of its earliest
// and latest participant return (for the recovery-time extractor). A
// ring of slots aggregates each pass while it is in flight; Depth-1
// participants are at most one pass apart, so 64 slots never alias.
type passLog struct {
	members int32
	slots   [64]struct {
		left        atomic.Int32
		first, last atomic.Int64
	}
	spans []passSpan // index = pass; preallocated, overflow is dropped
}

func newPassLog(capacity int) *passLog {
	return &passLog{spans: make([]passSpan, capacity)}
}

// reset prepares the log for a fresh group of the given size. Every slot
// is idle between runs: each pass completed on every participant.
func (l *passLog) reset(members int) {
	l.members = int32(members)
	for i := range l.slots {
		l.slots[i].first.Store(0)
		l.slots[i].last.Store(0)
		l.slots[i].left.Store(l.members)
	}
}

func (l *passLog) done(k, t int64) {
	s := &l.slots[k&int64(len(l.slots)-1)]
	for {
		old := s.first.Load()
		if (old != 0 && old <= t) || s.first.CompareAndSwap(old, t) {
			break
		}
	}
	for {
		old := s.last.Load()
		if old >= t || s.last.CompareAndSwap(old, t) {
			break
		}
	}
	if s.left.Add(-1) == 0 {
		if k < int64(len(l.spans)) {
			l.spans[k] = passSpan{s.first.Load(), s.last.Load()}
		}
		s.first.Store(0)
		s.last.Store(0)
		s.left.Store(l.members)
	}
}

// groupRun is a group under load.
type groupRun struct {
	*group
	parts []*participant
	limit atomic.Int64 // passes each participant completes before it stops
	log   *passLog     // inproc-faults only
}

// run is one workload's constructed system under the closed-loop load.
type run struct {
	w          *workload
	sys        *system
	groups     []*groupRun
	parts      []*participant
	slot       atomic.Int32
	stopReq    atomic.Bool
	unexpected atomic.Int64 // Await errors no injected fault explains

	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	failMu  sync.Mutex
	failErr error
}

// newRun prepares the participants of sys for the load.
func newRun(w *workload, sys *system, tr *tracer, log *passLog) *run {
	r := &run{w: w, sys: sys}
	r.slot.Store(noSlot)
	r.ctx, r.cancel = context.WithCancel(context.Background())
	for _, g := range sys.groups {
		gr := &groupRun{group: g, log: log}
		for i, m := range g.members {
			p := &participant{g: gr, b: m.b, id: m.id, leader: i == 0, seq: phaseSeq{nPhases: m.b.NumPhases()}}
			if tr != nil {
				p.rec = tr.newRecorder()
			}
			gr.parts = append(gr.parts, p)
			r.parts = append(r.parts, p)
		}
		r.groups = append(r.groups, gr)
		if log != nil {
			log.reset(len(gr.parts))
		}
	}
	return r
}

// close tears the system down once its participants have stopped.
func (r *run) close() {
	r.cancel()
	r.sys.close()
}

func (r *run) fail(err error) {
	r.failMu.Lock()
	if r.failErr == nil {
		r.failErr = err
	}
	r.failMu.Unlock()
	r.cancel()
}

func (r *run) err() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.failErr
}

// start launches every participant; each completes limit passes unless
// stop() lowers it.
func (r *run) start(limit int64) {
	for _, g := range r.groups {
		g.limit.Store(limit)
	}
	for _, p := range r.parts {
		r.wg.Add(1)
		go p.loop(r)
	}
}

// wait waits up to d for every participant to finish, failing the run
// (which cancels the outstanding Awaits) if they do not.
func (r *run) wait(d time.Duration, what string) {
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(d):
		r.fail(fmt.Errorf("%s did not complete on every participant within %v", what, d))
	}
	<-done
}

// stop asks every group to finish: member 0 of each group fixes the
// group's last pass (see loop), then the final passes run to completion.
func (r *run) stop(deadline time.Duration) {
	r.stopReq.Store(true)
	r.wait(deadline, "the final pass")
}

func (p *participant) loop(r *run) {
	defer r.wg.Done()
	g := p.g
	for {
		if p.leader && r.stopReq.Load() && g.limit.Load() == math.MaxInt64 {
			// Member 0 has not entered pass n+1 yet, so no participant can
			// complete a pass beyond n+depth-1 before it sees the new
			// limit (that needs member 0's arrival, which follows this
			// store). n+2*depth is therefore beyond every pass already
			// started, and every participant reaches it.
			g.limit.Store(p.n + 2*int64(g.depth))
		}
		if p.n >= g.limit.Load() {
			p.drain(r)
			return
		}
		w := r.slot.Load()
		t0 := now()
		var ph int
		var err error
		if w == tracedSlot {
			id := p.rec.next()
			err = p.b.Enter(r.ctx, p.id)
			t1 := now()
			if err == nil {
				ph, err = p.b.Leave(r.ctx, p.id)
			}
			t2 := now()
			p.enter.record(t1 - t0)
			p.leave.record(t2 - t1)
			p.rec.put(span{name: spEnter, id: p.rec.next(), parent: id, pass: p.n, start: t0, end: t1})
			p.rec.put(span{name: spLeave, id: p.rec.next(), parent: id, pass: p.n, start: t1, end: t2})
			p.rec.put(span{name: spAwait, id: id, pass: p.n, start: t0, end: t2})
		} else {
			ph, err = p.b.Await(r.ctx, p.id)
		}
		t := now()
		if w != noSlot {
			p.calls[w]++
		}
		if err != nil {
			if w != noSlot {
				p.errs[w]++
			}
			if r.w.faults && errors.Is(err, runtime.ErrReset) {
				p.resets++
				continue // the phase work was voided: redo it
			}
			if !errors.Is(err, context.Canceled) { // not the cancellation a failure causes
				r.unexpected.Add(1)
			}
			r.fail(fmt.Errorf("group %s member %d: Await: %w", g.name, p.id, err))
			return
		}
		p.seq.observe(ph)
		if g.log != nil {
			g.log.done(p.n, t)
		}
		p.n++
		p.done.Store(p.n)
		if p.leader {
			g.pass.Store(p.n)
		}
		if w != noSlot {
			p.lat[w].record(t - t0)
		}
	}
}

// drain reaps the waves a pipelined participant still has in flight
// after its last Await (Depth-1 of them, entered by every participant),
// so that its pass count matches the passes the runtime delivered.
func (p *participant) drain(r *run) {
	for i := 1; i < p.g.depth; i++ {
		ph, err := p.b.Leave(r.ctx, p.id)
		if err != nil {
			r.fail(fmt.Errorf("group %s member %d: Leave of an in-flight wave: %w", p.g.name, p.id, err))
			return
		}
		p.seq.observe(ph)
		p.n++
		p.done.Store(p.n)
	}
}

// rtStats is the subset of runtime.Stats the benchmark reads.
type rtStats struct {
	passes, resets, sends, drops  int64
	rejected, wasted              int64
	resetsInj, byzInj, droppedInj int64
}

func statsOf(s runtime.Stats) rtStats {
	return rtStats{
		passes: s.Passes, resets: s.Resets, sends: s.Sends, drops: s.Drops,
		rejected:  s.RejectedSeq + s.RejectedPhase + s.RejectedTop + s.RejectedSender,
		wasted:    s.WastedInstances,
		resetsInj: s.ResetsInjected, byzInj: s.ByzInjected, droppedInj: s.DroppedInjections,
	}
}

func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{a.passes - b.passes, a.resets - b.resets, a.sends - b.sends, a.drops - b.drops,
		a.rejected - b.rejected, a.wasted - b.wasted, a.resetsInj - b.resetsInj, a.byzInj - b.byzInj,
		a.droppedInj - b.droppedInj}
}

func (a rtStats) add(b rtStats) rtStats {
	return rtStats{a.passes + b.passes, a.resets + b.resets, a.sends + b.sends, a.drops + b.drops,
		a.rejected + b.rejected, a.wasted + b.wasted, a.resetsInj + b.resetsInj, a.byzInj + b.byzInj,
		a.droppedInj + b.droppedInj}
}

// snapshot is every outside counter at one window edge.
type snapshot struct {
	c     counters
	st    rtStats
	tcp   transport.TCPStats
	done  []int64 // per group: Σ participant passes
	calls int64
}

func (r *run) snap() snapshot {
	s := snapshot{c: readCounters()}
	for _, b := range r.sys.barriers {
		s.st = s.st.add(statsOf(b.Stats()))
	}
	if r.sys.tcpStats != nil {
		s.tcp = r.sys.tcpStats()
	}
	for _, g := range r.groups {
		var d int64
		for _, p := range g.parts {
			d += p.done.Load()
		}
		s.done = append(s.done, d)
	}
	return s
}

// windowResult is what one timed window measured.
type windowResult struct {
	d           delta
	st          rtStats
	tcp         transport.TCPStats
	secs        float64
	groupPasses []float64 // passes per group, counted once per group
	passes      float64   // Σ groupPasses
	from, to    int64     // window edges (ns since epoch)
}

func (r *run) between(a, b snapshot) windowResult {
	w := windowResult{d: diff(a.c, b.c), st: b.st.sub(a.st), from: a.c.wall, to: b.c.wall}
	w.secs = w.d.wall.Seconds()
	w.tcp = transport.TCPStats{
		FramesSent:   b.tcp.FramesSent - a.tcp.FramesSent,
		FramesRecv:   b.tcp.FramesRecv - a.tcp.FramesRecv,
		DecodeErrors: b.tcp.DecodeErrors - a.tcp.DecodeErrors,
		ConnDrops:    b.tcp.ConnDrops - a.tcp.ConnDrops,
	}
	for i, g := range r.groups {
		gp := float64(b.done[i]-a.done[i]) / float64(len(g.parts))
		w.groupPasses = append(w.groupPasses, gp)
		w.passes += gp
	}
	return w
}

// measureWindow runs the load for d with participants recording into
// slot and returns what the outside counters saw.
func (r *run) measureWindow(slot int32, d time.Duration) windowResult {
	for _, p := range r.parts {
		p.lat[slot] = new(latHist)
		if slot == tracedSlot {
			p.enter, p.leave = new(latHist), new(latHist)
		}
	}
	r.slot.Store(slot) // publishes the histograms to the participants
	a := r.snap()
	sleepCtx(r.ctx, d)
	b := r.snap()
	r.slot.Store(noSlot)
	return r.between(a, b)
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// check verifies the run's outputs once every participant has stopped:
// phase sequences, agreement, the runtime's own counts against the
// benchmark's, no halt, and — fault-free — no drops, rejects or decode
// errors.
func (r *run) check() error {
	if err := r.err(); err != nil {
		return err
	}
	type seen struct{ passes, resets int64 }
	perBarrier := map[*runtime.Barrier]*seen{}
	for _, g := range r.groups {
		seqs := make([]*phaseSeq, len(g.parts))
		for i, p := range g.parts {
			seqs[i] = &p.seq
			s := perBarrier[p.b]
			if s == nil {
				s = &seen{}
				perBarrier[p.b] = s
			}
			s.passes += p.n
			s.resets += p.resets
		}
		if err := agree(seqs); err != nil {
			return fmt.Errorf("group %s: %w", g.name, err)
		}
	}
	for _, b := range r.sys.barriers {
		if b.Halted() {
			return errors.New("a barrier halted")
		}
		st := b.Stats()
		s := perBarrier[b]
		if st.Passes != s.passes || st.Resets != s.resets {
			return fmt.Errorf("Stats reports %d passes and %d resets, participants saw %d and %d",
				st.Passes, st.Resets, s.passes, s.resets)
		}
		if !r.w.faults {
			if rs := statsOf(st); rs.drops != 0 || rs.rejected != 0 || rs.resets != 0 {
				return fmt.Errorf("fault-free barrier shows %d drops, %d rejects, %d resets", rs.drops, rs.rejected, rs.resets)
			}
		}
	}
	if r.sys.tcpStats != nil {
		if t := r.sys.tcpStats(); t.DecodeErrors != 0 {
			return fmt.Errorf("transport shows %d decode errors", t.DecodeErrors)
		}
	}
	return nil
}
