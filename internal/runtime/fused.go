// Fused execution of the tree runtime: when a TopologyTree barrier hosts
// every member in this process and no explicit transport was supplied, the
// members do not need a goroutine (and two channel hops) per tree edge —
// the whole collective runs on ONE scheduler goroutine, and an
// announcement is delivered by refreshing the receiver's local copy
// directly and queueing the receiver for its next step. A wave then
// ripples through the entire tree inside a single wakeup instead of
// paying a park/unpark cycle per node, which on the in-process hot path
// is most of the cost of a pass.
//
// The protocol is unchanged: the scheduler runs the same treeProc state
// machines, the same guarded actions (step), and the same announcement
// discipline (announce, including the configured loss/corruption draws
// and the checksum verification at the receiver) as the goroutine-per-
// member mode, which remains in use whenever an explicit transport is
// configured — in particular for every distributed deployment. What the
// fusion changes is only the schedule: actions interleave at step
// granularity under a deterministic work queue, one of the legal
// schedules of the asynchronous protocol (compare the guarded engine's
// maximal-parallel scheduler).
//
// Asynchronous inputs still arrive over channels, because their senders
// are other goroutines: participant arrivals and fault injections on a
// control channel shared by all members, and spurious-message injections
// in per-link mailboxes flagged by a nudge channel.
package runtime

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/topo"
)

// startFusedTree wires the single-goroutine tree: every member is local,
// links deliver by direct copy refresh.
func (b *Barrier) startFusedTree(cfg Config, tree *topo.Tree, ln *lane) error {
	f := newFusedTree(b)
	for id := 0; id < b.n; id++ {
		f.addMember(cfg, ln, id, tree.Parent[id], tree.Children[id])
	}
	f.start(cfg)
	return nil
}

// startHybrid wires the two-level hybrid topology. With no transport
// every host is local and the member-level tree (stars under host roots,
// host roots in the cross-host tree) runs fused in one goroutine. With a
// TreeTransport — opened over HOST indices, one process per host — this
// process runs exactly one host's members fused, and the fused scheduler
// presents that whole subtree as one node on the external host-tree
// edges: down messages from the parent host refresh the local host
// root's parent copy, and the host root's convergecast acknowledgment —
// already the aggregate of its entire local subtree — is the only thing
// that crosses the network upward.
func (b *Barrier) startHybrid(cfg Config, members []int, ln *lane) error {
	arity := cfg.TreeArity
	if arity == 0 {
		arity = 2
	}
	hy, err := topo.NewHybridTree(cfg.Hosts, arity)
	if err != nil {
		return fmt.Errorf("ftbarrier: %w", err)
	}
	if len(hy.HostOf) != b.n {
		return fmt.Errorf("ftbarrier: Hosts cover %d members, Participants = %d", len(hy.HostOf), b.n)
	}
	if cfg.Transport == nil {
		// Every host is local: the hybrid member tree runs fully fused.
		return b.startFusedTree(cfg, hy.Tree, ln)
	}
	tt, ok := cfg.Transport.(TreeTransport)
	if !ok {
		return errors.New("ftbarrier: Topology == TopologyHybrid requires a tree transport over the host indices (transport.NewTCPTree)")
	}
	return b.startFusedHybrid(cfg, hy, members, tt, ln)
}

// startFusedHybrid wires one host's fused subtree into the cross-host
// tree: Members must be exactly one entry of Hosts, and the transport's
// node space is the host indices.
func (b *Barrier) startFusedHybrid(cfg Config, hy *topo.Hybrid, members []int, tt TreeTransport, ln *lane) error {
	if len(members) == 0 || len(members) == b.n {
		return errors.New("ftbarrier: hybrid over a transport needs Members = the roster of exactly one host")
	}
	host := hy.HostOf[members[0]]
	roster := hy.Hosts[host]
	sorted := append([]int(nil), members...)
	sort.Ints(sorted)
	if len(sorted) != len(roster) {
		return fmt.Errorf("ftbarrier: Members must be exactly host %d's roster %v, got %v", host, roster, members)
	}
	for i, j := range sorted {
		if roster[i] != j {
			return fmt.Errorf("ftbarrier: Members must be exactly host %d's roster %v, got %v", host, roster, members)
		}
	}
	ext, err := tt.OpenTree(host)
	if err != nil {
		return fmt.Errorf("ftbarrier: open host-tree link for host %d: %w", host, err)
	}
	ln.links = append(ln.links, ext)
	f := newFusedTree(b)
	f.ext = ext
	f.extRoot = hy.HostRoot[host]
	f.hostIdx = host
	f.hostOf = hy.HostOf
	f.hostRoot = hy.HostRoot
	for _, id := range roster {
		f.addMember(cfg, ln, id, hy.Tree.Parent[id], hy.Tree.Children[id])
	}
	f.start(cfg)
	return nil
}

// newFusedTree builds an empty scheduler; addMember populates it.
func newFusedTree(b *Barrier) *fusedTree {
	return &fusedTree{
		b:     b,
		procs: make([]*treeProc, b.n),
		// The shared control channel: at most one outstanding arrival per
		// participant, plus headroom for fault-injection bursts (inject
		// drops on overflow, as in the per-member mode).
		ctrl:  make(chan ctrlMsg, 4*b.n+16),
		nudge: make(chan struct{}, 1),
		dirty: make([]bool, b.n),
		queue: make([]int, 0, b.n),
	}
}

// addMember creates the fused proc and link for one local member.
func (f *fusedTree) addMember(cfg Config, ln *lane, id, parent int, kids []int) {
	link := &fusedTreeLink{
		f:       f,
		id:      id,
		injDown: make(chan Message, 1),
		injUp:   make(chan UpMessage, 2),
	}
	ln.links = append(ln.links, link)
	tp := newTreeProc(f.b, id, parent, kids, link, cfg)
	tp.gate.ctrl = f.ctrl // all gates feed the one scheduler
	f.procs[id] = tp
	ln.tprocs[id] = tp
	ln.gates[id] = tp.gate
}

// start launches the scheduler goroutine.
func (f *fusedTree) start(cfg Config) {
	f.b.wg.Add(1)
	go func() {
		defer f.b.wg.Done()
		f.run(cfg.Resend, cfg.LossRate, cfg.CorruptRate)
	}()
}

// fusedTree is the scheduler: a work queue of members with unprocessed
// input or unapplied enabled actions. All proc and gate state is owned by
// the scheduler goroutine; only the channels are shared.
type fusedTree struct {
	b     *Barrier
	procs []*treeProc // indexed by member id; nil for members of other hosts

	ctrl  chan ctrlMsg
	nudge chan struct{}

	dirty []bool
	queue []int
	head  int

	// Hybrid host-tree attachment (nil/zero when every member is local):
	// ext is this host's edge set in the cross-host tree (node space =
	// host indices), extRoot the local host-root member whose remote
	// edges route through it, hostIdx this host's index, hostOf the
	// member→host map for addressing down sends to remote child hosts,
	// hostRoot the host→root-member map for attributing received up
	// summaries.
	ext      TreeLink
	extRoot  int
	hostIdx  int
	hostOf   []int
	hostRoot []int
}

// remapUpChild rewrites an up summary's Child for the member↔host-index
// translation at the external edge, preserving the message's integrity
// status: the checksum covers Child, so a plain rewrite would either
// invalidate a genuine message or — worse — launder a corrupted one into
// validity. A message that arrived corrupted leaves corrupted.
func remapUpChild(m UpMessage, child int) UpMessage {
	valid := m.Sum == m.Checksum()
	m.Child = child
	m.Sum = m.Checksum()
	if !valid {
		m.Sum ^= 0xdeadbeef
	}
	return m
}

// mark queues member id for a step unless it is already queued.
func (f *fusedTree) mark(id int) {
	if !f.dirty[id] {
		f.dirty[id] = true
		f.queue = append(f.queue, id)
	}
}

// drain steps queued members to quiescence. Announcements made during a
// step deliver immediately and re-queue their receivers, so one drain
// carries a wave as far as the protocol allows.
func (f *fusedTree) drain(lossRate, corruptRate float64) {
	for f.head < len(f.queue) {
		id := f.queue[f.head]
		f.head++
		f.dirty[id] = false
		tp := f.procs[id]
		tp.step()
		tp.announce(lossRate, corruptRate)
	}
	f.queue = f.queue[:0]
	f.head = 0
}

// onCtrl dispatches a control message to its target member.
func (f *fusedTree) onCtrl(c ctrlMsg) {
	if c.id < 0 || c.id >= len(f.procs) || f.procs[c.id] == nil {
		return
	}
	f.procs[c.id].onCtrl(c)
	f.mark(c.id)
}

// onExtDown delivers a host-tree announcement from the parent host: it
// refreshes the local host root's parent copy (checksum verification and
// all fault branches are the root's own onDown).
func (f *fusedTree) onExtDown(m Message) {
	f.procs[f.extRoot].onDown(m)
	f.mark(f.extRoot)
}

// onExtUp delivers a child host's convergecast summary to the local host
// root. On the wire Child is the sending HOST index (the TCP transport
// cross-checks it against the hello identity); here it is translated to
// that host's root member — the child the member-level tree lists under
// our root. An out-of-range host index cannot be attributed to any edge:
// a sender violation, rejected and counted like onUp's unknown child.
func (f *fusedTree) onExtUp(m UpMessage) {
	if m.Child < 0 || m.Child >= len(f.hostRoot) {
		f.b.statRejSender.Add(1)
		return
	}
	f.procs[f.extRoot].onUp(remapUpChild(m, f.hostRoot[m.Child]))
	f.mark(f.extRoot)
}

// sweepInjections drains every link's spurious-injection mailboxes.
func (f *fusedTree) sweepInjections() {
	for _, tp := range f.procs {
		if tp == nil {
			continue
		}
		l := tp.link.(*fusedTreeLink)
		for {
			select {
			case m := <-l.injDown:
				tp.onDown(m)
				f.mark(tp.id)
				continue
			default:
			}
			select {
			case m := <-l.injUp:
				tp.onUp(m)
				f.mark(tp.id)
				continue
			default:
			}
			break
		}
	}
}

// onTick applies the quiet-edge retransmission policy to every member
// (see the per-member run loops) and queues them so the resends go out.
func (f *fusedTree) onTick() {
	for _, tp := range f.procs {
		if tp == nil {
			continue
		}
		if tp.sentSinceTick {
			tp.sentSinceTick = false
		} else {
			tp.haveSentDown = false
			tp.haveSentUp = false
		}
		f.mark(tp.id)
	}
}

func (f *fusedTree) run(resend time.Duration, lossRate, corruptRate float64) {
	tick := resendPacer().ticker(resend)
	defer tick.Stop()

	// The external host-tree edges, when this fused subtree is one node
	// of a cross-host hybrid; nil channels (never ready) otherwise.
	var extDown <-chan Message
	var extUp <-chan UpMessage
	if f.ext != nil {
		extDown = f.ext.Down()
		extUp = f.ext.Up()
	}

	for _, tp := range f.procs {
		if tp != nil {
			f.mark(tp.id) // prime the tree
		}
	}
	f.drain(lossRate, corruptRate)
	for {
		// Fast path: consume already-queued input without a blocking
		// select (an empty-channel poll is lock-free).
		busy := false
		for {
			progressed := false
			select {
			case c := <-f.ctrl:
				f.onCtrl(c)
				progressed = true
			default:
			}
			select {
			case <-f.nudge:
				f.sweepInjections()
				progressed = true
			default:
			}
			if f.ext != nil {
				select {
				case m := <-extDown:
					f.onExtDown(m)
					progressed = true
				default:
				}
				for drained := false; !drained; {
					select {
					case m := <-extUp:
						f.onExtUp(m)
						progressed = true
					default:
						drained = true
					}
				}
			}
			if !progressed {
				break
			}
			busy = true
			f.drain(lossRate, corruptRate)
		}
		if busy {
			select {
			case <-f.b.stopped:
				return
			case <-f.b.halted:
				return // fail-safe halt: quiesce
			default:
			}
			continue
		}

		// Idle: the whole collective is quiescent; park.
		select {
		case <-f.b.stopped:
			return
		case <-f.b.halted:
			return
		case c := <-f.ctrl:
			f.onCtrl(c)
		case <-f.nudge:
			f.sweepInjections()
		case m := <-extDown:
			f.onExtDown(m)
		case m := <-extUp:
			f.onExtUp(m)
		case <-tick.C:
			f.onTick()
		}
		f.drain(lossRate, corruptRate)
	}
}

// fusedTreeLink is a member's tree link in fused mode: sends refresh the
// receiving member's copies directly (the caller is always the scheduler
// goroutine); the channels exist only for spurious-message injection,
// whose senders are participant goroutines.
type fusedTreeLink struct {
	f  *fusedTree
	id int

	injDown chan Message
	injUp   chan UpMessage
}

func (l *fusedTreeLink) SendDown(child int, m Message) {
	if child < 0 || child >= len(l.f.procs) {
		return
	}
	tp := l.f.procs[child]
	if tp == nil {
		// A remote child: in the hybrid, the host root's children of other
		// hosts are reached over the external host-tree edge, addressed by
		// host index. (Only the host root has remote children.)
		if l.f.ext != nil && l.id == l.f.extRoot {
			l.f.ext.SendDown(l.f.hostOf[child], m)
		}
		return
	}
	if tp.parentID != l.id {
		return
	}
	tp.onDown(m)
	l.f.mark(child)
}

func (l *fusedTreeLink) SendUp(m UpMessage) {
	p := l.f.procs[l.id].parentID
	if p < 0 {
		return
	}
	if p >= len(l.f.procs) || l.f.procs[p] == nil {
		// The host root's parent lives on another host: the up summary —
		// the aggregate acknowledgment of this entire fused subtree — is
		// the one message that crosses the network, with Child translated
		// to our host index (the transport's node space).
		if l.f.ext != nil && l.id == l.f.extRoot {
			l.f.ext.SendUp(remapUpChild(m, l.f.hostIdx))
		}
		return
	}
	l.f.procs[p].onUp(m)
	l.f.mark(p)
}

func (l *fusedTreeLink) Down() <-chan Message { return l.injDown }
func (l *fusedTreeLink) Up() <-chan UpMessage { return l.injUp }

func (l *fusedTreeLink) InjectDown(m Message) bool {
	select {
	case l.injDown <- m:
		l.nudgeSched()
		return true
	default:
		return false
	}
}

func (l *fusedTreeLink) InjectUp(m UpMessage) bool {
	select {
	case l.injUp <- m:
		l.nudgeSched()
		return true
	default:
		return false
	}
}

func (l *fusedTreeLink) nudgeSched() {
	select {
	case l.f.nudge <- struct{}{}:
	default:
	}
}

func (l *fusedTreeLink) Close() error { return nil }
