package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/groups"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// member is one participant's seat: a barrier and a member id it hosts.
type member struct {
	b  *runtime.Barrier
	id int
}

// group is one barrier group (a tenant): the participants that pass
// together. Passes are counted once per group.
type group struct {
	name    string
	shape   string // tenants of equal shape are compared by groups.pass_spread
	depth   int    // wave-pipelining window
	members []member
	// pass is the group's completed passes as seen by member 0; traced
	// send spans are tagged with it.
	pass atomic.Int64
}

// system is one constructed workload: its groups, every distinct barrier
// and the transport counters, if it has sockets.
type system struct {
	groups   []*group
	barriers []*runtime.Barrier
	tcpStats func() transport.TCPStats // nil for in-process workloads
	rings    []*tracedRing             // traced ring transports
	close    func()
}

// workload is one named load shape of the benchmark.
type workload struct {
	name   string
	faults bool // injects the masked fault classes (inproc-faults)
	build  func(seed int64, tr *tracer) (*system, error)
}

var workloads = []*workload{
	{name: "inproc-ring", build: buildInprocRing},
	{name: "inproc-faults", faults: true, build: buildInprocFaults},
	{name: "tcp-ring", build: buildTCPRing},
	{name: "mux-groups", build: buildMuxGroups},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// singleBarrier wraps one barrier that hosts every member of one group.
func singleBarrier(g *group, b *runtime.Barrier, n int) *system {
	for id := 0; id < n; id++ {
		g.members = append(g.members, member{b, id})
	}
	return &system{groups: []*group{g}, barriers: []*runtime.Barrier{b}, close: b.Stop}
}

// traceRing wraps inner for span recording when tr is set.
func traceRing(inner runtime.Transport, tr *tracer, g *group) (runtime.Transport, *tracedRing) {
	if tr == nil {
		return inner, nil
	}
	w := &tracedRing{inner: inner, t: tr, pass: g.pass.Load}
	return w, w
}

// buildInprocRing: one 32-member MB ring on the default channel
// transport, one goroutine per member. The traced run passes the same
// channel transport explicitly, wrapped.
func buildInprocRing(seed int64, tr *tracer) (*system, error) {
	const n = 32
	g := &group{name: "ring32", shape: "ring", depth: 1}
	cfg := runtime.Config{Participants: n, Seed: seed}
	var w *tracedRing
	if tr != nil {
		cfg.Transport, w = traceRing(runtime.NewChanTransport(n), tr, g)
	}
	b, err := runtime.New(cfg)
	if err != nil {
		return nil, err
	}
	sys := singleBarrier(g, b, n)
	if w != nil {
		sys.rings = []*tracedRing{w}
	}
	return sys, nil
}

// Fault rates of inproc-faults. Every class is one the protocol masks.
const (
	faultLoss    = 0.001
	faultCorrupt = 0.001
	faultEvery   = 20 * time.Millisecond // mean gap between Reset/Byz injections
)

// buildInprocFaults: one 32-member double tree (h=5), all local and
// without an explicit transport, so it runs fused on one scheduler
// goroutine; loss and corruption come from Config.Seed, Reset and Byz
// injections from the injector.
func buildInprocFaults(seed int64, _ *tracer) (*system, error) {
	const n = 32
	b, err := runtime.New(runtime.Config{
		Participants: n,
		Topology:     runtime.TopologyTree,
		TreeArity:    2,
		LossRate:     faultLoss,
		CorruptRate:  faultCorrupt,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	return singleBarrier(&group{name: "tree32", shape: "tree", depth: 1}, b, n), nil
}

// buildTCPRing: one 4-member ring over the dedicated loopback TCP stack.
func buildTCPRing(seed int64, tr *tracer) (*system, error) {
	const n = 4
	t, err := transport.NewLoopbackRing(n)
	if err != nil {
		return nil, err
	}
	g := &group{name: "tcp4", shape: "ring", depth: 1}
	ring, w := traceRing(t, tr, g)
	b, err := runtime.New(runtime.Config{Participants: n, Transport: ring, Seed: seed})
	if err != nil {
		t.Close()
		return nil, err
	}
	sys := singleBarrier(g, b, n)
	sys.close = func() {
		b.Stop()
		t.Close()
	}
	sys.tcpStats = t.Stats
	if w != nil {
		sys.rings = []*tracedRing{w}
	}
	return sys, nil
}

// barrierdResend is cmd/barrierd's default retransmission period, used by
// the workloads that stand in for a barrierd deployment.
const barrierdResend = 500 * time.Microsecond

// muxTenants is the mux-groups roster: five rings, one ring pipelined
// four waves deep, and two trees, with barrierd's resend period.
func muxTenants(seed int64) []groups.Config {
	cfgs := make([]groups.Config, 0, 8)
	for i := 0; i < 5; i++ {
		cfgs = append(cfgs, groups.Config{Name: fmt.Sprintf("ring%d", i)})
	}
	cfgs = append(cfgs, groups.Config{Name: "ring-d4", Depth: 4})
	for i := 0; i < 2; i++ {
		cfgs = append(cfgs, groups.Config{Name: fmt.Sprintf("tree%d", i), Topology: transport.GroupTree})
	}
	for i := range cfgs {
		cfgs[i].Seed = seed + int64(i)
		cfgs[i].Resend = barrierdResend
	}
	return cfgs
}

// buildMuxGroups: four simulated processes over loopback muxes, each with
// a groups registry hosting its member of all eight tenants.
func buildMuxGroups(seed int64, _ *tracer) (*system, error) {
	const procs = 4
	cfgs := muxTenants(seed)
	specs, err := groups.Specs(cfgs)
	if err != nil {
		return nil, err
	}
	set, err := transport.NewLoopbackMuxes(procs, specs)
	if err != nil {
		return nil, err
	}
	regs := make([]*groups.Registry, procs)
	closeAll := func() {
		for _, r := range regs {
			if r != nil {
				r.Close()
			}
		}
		set.Close()
	}
	for j := range regs {
		if regs[j], err = groups.NewWithMux(groups.Options{Self: j}, cfgs, set.Muxes[j]); err != nil {
			closeAll()
			return nil, err
		}
	}
	sys := &system{close: closeAll}
	for gi, c := range cfgs {
		shape := c.Topology
		if shape == "" {
			shape = transport.GroupRing
		}
		if c.Depth > 1 {
			shape = fmt.Sprintf("%s-d%d", shape, c.Depth)
		}
		g := &group{name: c.Name, shape: shape, depth: max(c.Depth, 1)}
		for j, r := range regs {
			b := r.Groups()[gi].Barrier()
			g.members = append(g.members, member{b, j})
			sys.barriers = append(sys.barriers, b)
		}
		sys.groups = append(sys.groups, g)
	}
	sys.tcpStats = func() transport.TCPStats {
		var s transport.TCPStats
		for _, m := range set.Muxes {
			t := m.Stats()
			s.FramesSent += t.FramesSent
			s.FramesRecv += t.FramesRecv
			s.DecodeErrors += t.DecodeErrors
			s.ConnDrops += t.ConnDrops
		}
		return s
	}
	return sys, nil
}

// fault is one scheduled injection of inproc-faults.
type fault struct {
	at     time.Duration // offset from the start of the timed window
	member int
	byz    bool // Byz forgery; otherwise a Reset
	seed   int64
}

// faultSchedule derives the injections for a window of length span from
// seed: gaps uniform in [faultEvery/2, 3*faultEvery/2), member uniform,
// Reset or Byz with equal odds.
func faultSchedule(seed int64, n int, span time.Duration) []fault {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6661756c74))
	var out []fault
	t := time.Duration(0)
	for {
		t += faultEvery/2 + time.Duration(rng.Int64N(int64(faultEvery)))
		if t >= span {
			return out
		}
		out = append(out, fault{at: t, member: rng.IntN(n), byz: rng.IntN(2) == 1, seed: rng.Int64()})
	}
}

// formatSchedule renders a schedule as "R3@12.345ms B17@31.002ms ...";
// with the seed it replays the run's injections exactly.
func formatSchedule(fs []fault) string {
	var sb strings.Builder
	for i, f := range fs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		c := 'R'
		if f.byz {
			c = 'B'
		}
		fmt.Fprintf(&sb, "%c%d@%.3fms", c, f.member, float64(f.at)/1e6)
	}
	return sb.String()
}

// injector delivers a fault schedule to one barrier in real time.
type injector struct {
	b       *runtime.Barrier
	sched   []fault
	stop    chan struct{}
	done    chan struct{}
	resetAt []int64 // instants of the accepted Resets
	calls   int64
}

func newInjector(b *runtime.Barrier, sched []fault) *injector {
	return &injector{b: b, sched: sched, stop: make(chan struct{}), done: make(chan struct{}),
		resetAt: make([]int64, 0, len(sched))}
}

// run injects every fault due before stop is closed, timing each from
// start (ns since the epoch). A Reset counts as landed when
// Stats.ResetsInjected rose across the call.
func (in *injector) run(start int64) {
	defer close(in.done)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for _, f := range in.sched {
		if wait := time.Duration(start + int64(f.at) - now()); wait > 0 {
			timer.Reset(wait)
			select {
			case <-in.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		select {
		case <-in.stop:
			return
		default:
		}
		in.calls++
		if f.byz {
			in.b.Byz(f.member, f.seed)
			continue
		}
		before := in.b.Stats().ResetsInjected
		at := now()
		in.b.Reset(f.member)
		if in.b.Stats().ResetsInjected > before {
			in.resetAt = append(in.resetAt, at)
		}
	}
}

// halt stops the injector and waits for it.
func (in *injector) halt() {
	close(in.stop)
	<-in.done
}
