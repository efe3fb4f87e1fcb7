// Package transport carries the runtime barrier over TCP, so a
// fault-tolerant barrier can span OS processes and machines.
//
// There is one wire stack: the Mux (mux.go). It keeps one TCP connection
// per pair of processes that share a protocol edge, and that connection
// carries the frames of every barrier group crossing the edge. TCP and
// TCPTree are single-group adapters over it: Open(id) starts member id's
// one-group Mux and returns its ring or tree link. Single-group and
// multi-group processes therefore speak the same wire protocol. On every
// edge the lower process index dials and the higher accepts, and the
// hello frame carries the Mux configuration digest (peer list plus group
// set), so a peer from another deployment is rejected at handshake.
//
// Fault mapping: the transport adds no recovery logic of its own. Every
// socket failure is translated into a fault class the barrier protocol
// already masks (see Table 1 of the paper):
//
//   - connection reset, partial write, dial failure → message loss: the
//     damaged connection is dropped and redialed; the barrier's periodic
//     retransmission re-delivers current state;
//   - frame decode error (bad magic, truncated frame, CRC mismatch,
//     oversized length) → detected corruption, which the paper reduces to
//     loss: the frame is discarded and the connection dropped rather than
//     attempting to resynchronize the byte stream;
//   - a slow or dead peer → delay: sends are latest-state-wins slots and
//     never block a protocol goroutine.
package transport

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obsv"
	"repro/internal/runtime"
	"repro/internal/topo"
)

// TCPConfig parameterizes a single-group TCP transport.
type TCPConfig struct {
	// Peers[j] is member j's listen address (host:port); the group size is
	// len(Peers).
	Peers []string
	// BaseBackoff and MaxBackoff bound the reconnect backoff (defaults
	// 10ms and 1s). Each failed dial doubles the delay up to MaxBackoff,
	// with up to 50% random jitter subtracted so that members restarting
	// together do not reconnect in lockstep.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// DialTimeout bounds one dial attempt (default 2s).
	DialTimeout time.Duration
	// HandshakeTimeout bounds the wait for a dialer's hello frame
	// (default 5s).
	HandshakeTimeout time.Duration
	// MaxPending bounds concurrent un-handshaken incoming connections
	// (default 64). Each pre-handshake connection holds a goroutine and a
	// frame buffer for up to HandshakeTimeout; beyond the bound new
	// connections are closed immediately and counted as accept overflows,
	// so a dial flood or reconnect storm cannot pile up unbounded state.
	MaxPending int
	// Logf, if non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
	// Registry, if non-nil, receives the transport's metric series
	// (dials, reconnect backoff state, CRC drops, frames). The counters
	// are read at scrape time from the atomics the transport maintains
	// anyway, so exporting costs the data path nothing.
	Registry *obsv.Registry
}

// Option mutates a TCPConfig (used by the loopback constructors).
type Option func(*TCPConfig)

// TCPStats is a snapshot of a transport's counters.
type TCPStats struct {
	Dials             int64 // successful outgoing connections
	FailedDials       int64 // dial attempts that ended in backoff
	Accepts           int64 // accepted incoming connections
	HandshakeRejects  int64 // incoming connections rejected at hello
	DigestRejects     int64 // hello rejects caused by a config digest mismatch
	AcceptOverflows   int64 // connections closed at accept: too many un-handshaken
	ConnDrops         int64 // established connections dropped after an error
	DecodeErrors      int64 // frames rejected by the codec
	FramesSent        int64
	FramesRecv        int64
	ConnectedOut      int64 // outgoing connections currently established (gauge)
	BackingOff        int64 // dialers currently sleeping in reconnect backoff (gauge)
	PendingHandshakes int64 // accepted connections awaiting their hello (gauge)
}

// tcpStats holds the transport counters. A Mux counts into its own, or
// into one shared by every member a TCP or TCPTree opened.
type tcpStats struct {
	dials, failedDials, accepts, handshakeRejects atomic.Int64
	digestRejects, acceptOverflows                atomic.Int64
	connDrops, decodeErrors                       atomic.Int64
	framesSent, framesRecv                        atomic.Int64
	connectedOut, backingOff, pendingHandshakes   atomic.Int64 // gauges
}

func (s *tcpStats) snapshot() TCPStats {
	return TCPStats{
		Dials:             s.dials.Load(),
		FailedDials:       s.failedDials.Load(),
		Accepts:           s.accepts.Load(),
		HandshakeRejects:  s.handshakeRejects.Load(),
		DigestRejects:     s.digestRejects.Load(),
		AcceptOverflows:   s.acceptOverflows.Load(),
		ConnDrops:         s.connDrops.Load(),
		DecodeErrors:      s.decodeErrors.Load(),
		FramesSent:        s.framesSent.Load(),
		FramesRecv:        s.framesRecv.Load(),
		ConnectedOut:      s.connectedOut.Load(),
		BackingOff:        s.backingOff.Load(),
		PendingHandshakes: s.pendingHandshakes.Load(),
	}
}

// standardMetrics is the transport_* series family. Every series is a
// scrape-time read of a counter the data path maintains regardless.
func (s *tcpStats) standardMetrics() []obsv.Metric {
	return []obsv.Metric{
		obsv.NewCounterFunc("transport_dials_total",
			"Successful outgoing connections (reconnects included).", s.dials.Load),
		obsv.NewCounterFunc("transport_failed_dials_total",
			"Dial attempts that ended in reconnect backoff.", s.failedDials.Load),
		obsv.NewCounterFunc("transport_accepts_total",
			"Accepted incoming connections.", s.accepts.Load),
		obsv.NewCounterFunc("transport_handshake_rejects_total",
			"Incoming connections rejected at the hello handshake.", s.handshakeRejects.Load),
		obsv.NewCounterFunc("transport_digest_rejects_total",
			"Hello rejects caused by a config digest mismatch (cluster cross-connect).", s.digestRejects.Load),
		obsv.NewCounterFunc("transport_accept_overflows_total",
			"Connections closed at accept because too many were awaiting their hello.", s.acceptOverflows.Load),
		obsv.NewCounterFunc("transport_conn_drops_total",
			"Established connections dropped after an error.", s.connDrops.Load),
		obsv.NewCounterFunc("transport_decode_errors_total",
			"Frames rejected by the codec (CRC mismatch, truncation, oversize).", s.decodeErrors.Load),
		obsv.NewCounterFunc(`transport_frames_total{dir="sent"}`,
			"Frames by direction.", s.framesSent.Load),
		obsv.NewCounterFunc(`transport_frames_total{dir="recv"}`,
			"Frames by direction.", s.framesRecv.Load),
		obsv.NewGaugeFunc("transport_connected_links",
			"Outgoing connections currently established.", s.connectedOut.Load),
		obsv.NewGaugeFunc("transport_backing_off_links",
			"Dialers currently sleeping in reconnect backoff.", s.backingOff.Load),
		obsv.NewGaugeFunc("transport_pending_handshakes",
			"Accepted connections currently awaiting their hello frame.", s.pendingHandshakes.Load),
	}
}

// series remembers the metric names a transport registered, so Close can
// unregister them and a successor transport can register the same names
// on the same registry. Written at construction and Close only.
type series struct {
	reg   *obsv.Registry
	names []string
}

// register registers ms on r. On a name collision it rolls back
// everything registered so far (this call and earlier ones), leaving the
// registry as if the transport never existed.
func (s *series) register(r *obsv.Registry, ms ...obsv.Metric) error {
	for _, m := range ms {
		if err := r.Register(m); err != nil {
			s.unregister()
			return err
		}
		s.reg = r
		s.names = append(s.names, m.Name())
	}
	return nil
}

// unregister removes every registered series. Idempotent; called from
// the transport's Close so a bounded-lifetime transport (one tenant
// deployment among many sharing a registry) leaves no series behind —
// the leak class the barriervet metricpair analyzer rejects.
func (s *series) unregister() {
	if s.reg == nil {
		return
	}
	for _, n := range s.names {
		s.reg.Unregister(n)
	}
	s.reg = nil
	s.names = nil
}

// TCP implements runtime.Transport for one ring group: Open(id) starts
// member id's one-group Mux and returns its ring link.
type TCP struct{ oneGroup }

// NewTCP creates a TCP transport for the ring described by cfg.Peers.
// Nothing is bound or dialed until Open.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	t := &TCP{}
	if err := t.init(cfg, GroupSpec{Topology: GroupRing}); err != nil {
		return nil, err
	}
	return t, nil
}

// NewLoopbackRing binds n ephemeral loopback listeners and returns a TCP
// transport for an all-local ring — the test, benchmark and conformance
// configuration. The backoff defaults are lowered (2ms base, 100ms cap) so
// in-process reconnect tests converge quickly; opts may override any
// field.
func NewLoopbackRing(n int, opts ...Option) (*TCP, error) {
	if n < 2 {
		return nil, errors.New("transport: need at least 2 members")
	}
	cfg, listeners, err := loopbackConfig(n, opts)
	if err != nil {
		return nil, err
	}
	t, err := NewTCP(cfg)
	if err != nil {
		closeListeners(listeners)
		return nil, err
	}
	t.listeners = listeners
	return t, nil
}

// Open starts member id's Mux and returns its ring link.
func (t *TCP) Open(id int) (runtime.Link, error) {
	m, err := t.open(id)
	if err != nil {
		return nil, err
	}
	return m.Ring(0).Open(id)
}

// TCPTree implements runtime.TreeTransport for one tree group. It also
// satisfies the ring runtime.Transport interface so it can be placed in
// Config.Transport, but its Open always fails: a tree transport serves
// only TopologyTree (and TopologyHybrid's host tree).
type TCPTree struct{ oneGroup }

// NewTCPTree creates a TCP tree transport for the tree described by the
// parent vector (parent[i] is member i's parent). The tree must be a
// k-ary heap — parent[i] == (i-1)/k, the shape topo.NewKAryTree builds
// and the only one the Mux carries. cfg.Peers[i] is member i's listen
// address. Nothing is bound or dialed until OpenTree.
func NewTCPTree(cfg TCPConfig, parent []int) (*TCPTree, error) {
	if len(cfg.Peers) != len(parent) {
		return nil, fmt.Errorf("transport: %d peers for a %d-member tree", len(cfg.Peers), len(parent))
	}
	arity, err := heapArity(parent)
	if err != nil {
		return nil, err
	}
	t := &TCPTree{}
	if err := t.init(cfg, GroupSpec{Topology: GroupTree, TreeArity: arity}); err != nil {
		return nil, err
	}
	return t, nil
}

// heapArity returns k when parent is topo.NewKAryTree(len(parent), k).
func heapArity(parent []int) (int, error) {
	rootKids := 0
	for _, p := range parent {
		if p == 0 {
			rootKids++
		}
	}
	k := max(rootKids, 2)
	shape, err := topo.NewKAryTree(len(parent), k)
	if err != nil {
		return 0, fmt.Errorf("transport: %w", err)
	}
	if !slices.Equal(shape.Parent, parent) {
		return 0, errors.New("transport: tree parent vector is not a k-ary heap (parent[i] == (i-1)/k)")
	}
	return k, nil
}

// NewLoopbackTree binds ephemeral loopback listeners and returns a TCP tree
// transport for an all-local binary-heap tree of n members — the same shape
// a TopologyTree barrier builds by default (topo.NewKAryTree(n, 2)). Like
// NewLoopbackRing it lowers the backoff defaults (2ms base, 100ms cap) so
// in-process reconnect tests converge quickly; opts may override any field.
func NewLoopbackTree(n int, opts ...Option) (*TCPTree, error) {
	if n < 2 {
		return nil, errors.New("transport: need at least 2 members")
	}
	shape, err := topo.NewKAryTree(n, 2)
	if err != nil {
		return nil, err
	}
	return NewLoopbackTreeParent(shape.Parent, opts...)
}

// NewLoopbackTreeParent is NewLoopbackTree for any k-ary heap: parent[i]
// is node i's parent. The hybrid topology uses it to run a cross-HOST tree
// on loopback — the transport's node space there is host indices
// (topo.Hybrid.HostTree.Parent), not member ids.
func NewLoopbackTreeParent(parent []int, opts ...Option) (*TCPTree, error) {
	if len(parent) < 2 {
		return nil, errors.New("transport: need at least 2 nodes")
	}
	cfg, listeners, err := loopbackConfig(len(parent), opts)
	if err != nil {
		return nil, err
	}
	t, err := NewTCPTree(cfg, parent)
	if err != nil {
		closeListeners(listeners)
		return nil, err
	}
	t.listeners = listeners
	return t, nil
}

// Open rejects ring use; a TCPTree serves Config.Topology == TopologyTree.
func (t *TCPTree) Open(id int) (runtime.Link, error) {
	return nil, errors.New("transport: TCPTree requires Config.Topology == TopologyTree")
}

// OpenTree starts member id's Mux and returns its tree link.
func (t *TCPTree) OpenTree(id int) (runtime.TreeLink, error) {
	m, err := t.open(id)
	if err != nil {
		return nil, err
	}
	return m.Tree(0).(*muxTreeView).OpenTree(id)
}

// oneGroup is what TCP and TCPTree share: the one-group spec, and one Mux
// per opened member. Every Mux counts into the one tcpStats, so Stats and
// the registered series cover every member this value opened.
type oneGroup struct {
	cfg    TCPConfig
	spec   GroupSpec
	digest uint64

	mu        sync.Mutex
	muxes     []*Mux
	listeners []net.Listener // pre-bound by the loopback constructors, else nil
	closed    bool

	stats  tcpStats
	series series
}

func (s *oneGroup) init(cfg TCPConfig, spec GroupSpec) error {
	if len(cfg.Peers) < 2 {
		return errors.New("transport: need at least 2 peers")
	}
	s.cfg, s.spec = cfg, spec
	s.digest = muxDigest(s.muxConfig(0))
	s.muxes = make([]*Mux, len(cfg.Peers))
	s.listeners = make([]net.Listener, len(cfg.Peers))
	if cfg.Registry != nil {
		return s.series.register(cfg.Registry, s.stats.standardMetrics()...)
	}
	return nil
}

// muxConfig is member self's one-group Mux configuration. The Mux
// applies the backoff and timeout defaults.
func (s *oneGroup) muxConfig(self int) MuxConfig {
	return MuxConfig{
		Self:             self,
		Peers:            s.cfg.Peers,
		Groups:           []GroupSpec{s.spec},
		BaseBackoff:      s.cfg.BaseBackoff,
		MaxBackoff:       s.cfg.MaxBackoff,
		DialTimeout:      s.cfg.DialTimeout,
		HandshakeTimeout: s.cfg.HandshakeTimeout,
		MaxPending:       s.cfg.MaxPending,
		Logf:             s.cfg.Logf,
	}
}

// open builds and starts member id's Mux on its pre-bound listener, if
// any, the way NewLoopbackMuxes does.
func (s *oneGroup) open(id int) (*Mux, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("transport: closed")
	}
	if id < 0 || id >= len(s.muxes) {
		return nil, fmt.Errorf("transport: member %d out of range [0,%d)", id, len(s.muxes))
	}
	if s.muxes[id] != nil {
		return nil, fmt.Errorf("transport: member %d already open", id)
	}
	m, err := newMux(s.muxConfig(id), s.listeners[id], &s.stats)
	if err != nil {
		return nil, err
	}
	s.listeners[id] = nil // owned by the mux now
	if err := m.start(); err != nil {
		m.Close()
		return nil, err
	}
	s.muxes[id] = m
	return m, nil
}

// Close tears down every member's Mux and any listener never handed to one.
func (s *oneGroup) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	for _, m := range s.muxes {
		if m != nil {
			m.Close()
		}
	}
	closeListeners(s.listeners)
	s.series.unregister()
	return nil
}

// Stats returns a snapshot of the counters, summed over every opened member.
func (s *oneGroup) Stats() TCPStats { return s.stats.snapshot() }

// Digest returns the configuration digest this transport sends (and
// expects) in hello frames: the digest of its one-group Mux.
func (s *oneGroup) Digest() uint64 { return s.digest }

// BreakLinks force-closes member id's current connections, simulating a
// network blip. The dialers redial with backoff; in-flight frames are
// lost and masked by retransmission. Test hook.
func (s *oneGroup) BreakLinks(id int) {
	s.mu.Lock()
	var m *Mux
	if id >= 0 && id < len(s.muxes) {
		m = s.muxes[id]
	}
	s.mu.Unlock()
	if m != nil {
		m.BreakConns()
	}
}

// loopbackConfig binds n ephemeral loopback listeners and returns the
// config of an all-local deployment over them, with the backoff defaults
// lowered (2ms base, 100ms cap) and then opts applied.
func loopbackConfig(n int, opts []Option) (TCPConfig, []net.Listener, error) {
	listeners, peers, err := bindLoopback(n)
	if err != nil {
		return TCPConfig{}, nil, err
	}
	cfg := TCPConfig{Peers: peers, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg, listeners, nil
}

// bindLoopback binds n ephemeral loopback listeners and returns them with
// their addresses.
func bindLoopback(n int) ([]net.Listener, []string, error) {
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for j := 0; j < n; j++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(listeners[:j])
			return nil, nil, fmt.Errorf("transport: bind loopback member %d: %w", j, err)
		}
		listeners[j] = ln
		peers[j] = ln.Addr().String()
	}
	return listeners, peers, nil
}

func closeListeners(ls []net.Listener) {
	for _, l := range ls {
		if l != nil {
			l.Close()
		}
	}
}
