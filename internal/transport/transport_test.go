package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/tokenring"
)

// openRing opens every member of a loopback ring and returns the links.
func openRing(t *testing.T, n int, opts ...Option) (*TCP, []runtime.Link) {
	t.Helper()
	tr, err := NewLoopbackRing(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	links := make([]runtime.Link, n)
	for j := 0; j < n; j++ {
		links[j], err = tr.Open(j)
		if err != nil {
			t.Fatalf("Open(%d): %v", j, err)
		}
	}
	return tr, links
}

func waitState(t *testing.T, l runtime.Link, timeout time.Duration) runtime.Message {
	t.Helper()
	select {
	case m := <-l.State():
		return m
	case <-time.After(timeout):
		t.Fatal("no state frame arrived")
		return runtime.Message{}
	}
}

// State frames flow forward around the ring and ⊤ markers flow back, over
// connections dialed by the lower process index whatever the direction.
func TestRingDelivery(t *testing.T) {
	const n = 3
	_, links := openRing(t, n)

	for j := 0; j < n; j++ {
		m := runtime.Message{SN: tokenring.SN(j), CP: core.Execute, PH: j}
		m.Sum = m.Checksum()
		// Resend until the connection is up, like the barrier's ticker does.
		succ := links[(j+1)%n]
		deadline := time.Now().Add(5 * time.Second)
		var got runtime.Message
		for {
			links[j].SendState(m)
			select {
			case got = <-succ.State():
			case <-time.After(2 * time.Millisecond):
				if time.Now().Before(deadline) {
					continue
				}
				t.Fatalf("member %d: state never reached successor", j)
			}
			break
		}
		if got != m {
			t.Errorf("member %d: successor received %+v, want %+v", (j+1)%n, got, m)
		}
	}

	// ⊤ flows backward on the same edge: member 1's SendTop reaches member 0.
	deadline := time.Now().Add(5 * time.Second)
	for {
		links[1].SendTop()
		select {
		case <-links[0].Top():
		case <-time.After(2 * time.Millisecond):
			if time.Now().Before(deadline) {
				continue
			}
			t.Fatal("⊤ marker never reached predecessor")
		}
		break
	}
}

// Latest-state-wins: when sends outpace the connection, the successor sees
// the newest state, not a backlog.
func TestLatestStateWins(t *testing.T) {
	_, links := openRing(t, 2)

	final := runtime.Message{SN: 99, CP: core.Execute, PH: 1}
	final.Sum = final.Checksum()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for sn := tokenring.SN(0); sn < 99; sn++ {
			m := runtime.Message{SN: sn, CP: core.Execute, PH: 0}
			m.Sum = m.Checksum()
			links[0].SendState(m)
		}
		links[0].SendState(final)
		// Drain until the final state shows up; anything else must be a
		// valid earlier message, never a torn or reordered-past-final one.
		got := waitState(t, links[1], 5*time.Second)
		if got == final {
			return
		}
		if got.Sum != got.Checksum() {
			t.Fatalf("received damaged message %+v", got)
		}
		if time.Now().After(deadline) {
			t.Fatal("final state never arrived")
		}
	}
}

// A forcibly broken connection redials and delivery resumes — the blip is
// pure message loss, masked by resending.
func TestReconnectAfterBreak(t *testing.T) {
	tr, links := openRing(t, 2)

	m := runtime.Message{SN: 1, CP: core.Execute, PH: 0}
	m.Sum = m.Checksum()
	send := func(sn tokenring.SN) runtime.Message {
		mm := runtime.Message{SN: sn, CP: core.Execute, PH: 0}
		mm.Sum = mm.Checksum()
		links[0].SendState(mm)
		return mm
	}
	// Establish the connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		send(1)
		select {
		case <-links[1].State():
		case <-time.After(2 * time.Millisecond):
			if time.Now().Before(deadline) {
				continue
			}
			t.Fatal("initial connection never delivered")
		}
		break
	}
	dialsBefore := tr.Stats().Dials

	tr.BreakLinks(0)

	// Delivery must resume on a fresh connection.
	deadline = time.Now().Add(10 * time.Second)
	for {
		want := send(7)
		select {
		case got := <-links[1].State():
			if got == want {
				if redials := tr.Stats().Dials - dialsBefore; redials == 0 {
					t.Error("delivery resumed without a redial being counted")
				}
				return
			}
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("delivery did not resume after the link was broken")
		}
	}
}

// A stranger that connects without a valid hello (or with the wrong id) is
// rejected and does not disturb the ring.
func TestHandshakeRejectsStrangers(t *testing.T) {
	tr, links := openRing(t, 3)

	addr1 := tr.cfg.Peers[1] // member 1 accepts only member 0, the one lower-indexed neighbour
	intruders := [][]byte{
		AppendHello(nil, 2, tr.Digest()),                    // right digest, but 2 > 1 never dials 1
		AppendHello(nil, 0, tr.Digest()^0xbad),              // right position, wrong config digest
		AppendFrame(nil, FrameHello, []byte{1, 0, 0, 0, 0}), // v1 hello: wire version mismatch
		AppendTop(nil, 0),                                   // not a hello at all
		{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02},                // garbage bytes
	}
	for _, intruder := range intruders {
		c, err := net.Dial("tcp", addr1)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(intruder)
		// The acceptor must close on us.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1)
		if _, err := c.Read(buf); err == nil {
			t.Error("acceptor kept an unauthenticated connection open")
		}
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	want := int64(len(intruders))
	for tr.Stats().HandshakeRejects < want {
		if time.Now().After(deadline) {
			t.Fatalf("handshake rejects = %d, want %d", tr.Stats().HandshakeRejects, want)
		}
		time.Sleep(time.Millisecond)
	}
	// The digest mismatch must be distinguishable from identity rejects.
	if got := tr.Stats().DigestRejects; got != 1 {
		t.Errorf("digest rejects = %d, want 1", got)
	}

	// The legitimate edge still works.
	m := runtime.Message{SN: 5, CP: core.Execute, PH: 2}
	m.Sum = m.Checksum()
	deadline = time.Now().Add(5 * time.Second)
	for {
		links[0].SendState(m)
		select {
		case got := <-links[1].State():
			if got != m {
				t.Fatalf("got %+v, want %+v", got, m)
			}
			return
		case <-time.After(2 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("legitimate traffic blocked after intruders")
			}
		}
	}
}

// A connection carrying garbage after a valid hello is dropped (decode
// error ≡ loss) and replaced by a clean reconnect.
func TestDecodeErrorDropsConnection(t *testing.T) {
	tr, err := NewLoopbackRing(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	// Member 0 opens only after the garbage has been judged: its dialer
	// would otherwise replace the impostor's connection before the
	// garbage is read, and the garbage would never be decoded.
	l1, err := tr.Open(1)
	if err != nil {
		t.Fatal(err)
	}

	// Pose as member 0 dialing member 1, then send garbage.
	c, err := net.Dial("tcp", tr.cfg.Peers[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(AppendHello(nil, 0, tr.Digest()))
	c.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Error("acceptor survived a garbage frame")
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().DecodeErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("decode error not accounted")
		}
		time.Sleep(time.Millisecond)
	}

	// The genuine member 0 connects cleanly and its state is delivered.
	l0, err := tr.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	m := runtime.Message{SN: 3, CP: core.Execute, PH: 1}
	m.Sum = m.Checksum()
	deadline = time.Now().Add(5 * time.Second)
	for {
		l0.SendState(m)
		select {
		case got := <-l1.State():
			if got != m {
				t.Fatalf("received %+v, want %+v", got, m)
			}
			return
		case <-time.After(2 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("clean reconnect never delivered")
			}
		}
	}
}

// Sends before any connection exists must not block: the mailbox absorbs
// and supersedes them.
func TestSendNeverBlocks(t *testing.T) {
	// Reserve a port for member 0, then pick a dead successor address by
	// binding and immediately closing a second listener.
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln0.Close()
	lnDead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := lnDead.Addr().String()
	lnDead.Close()
	ln0.Close()

	tr, err := NewTCP(TCPConfig{
		Peers:       []string{ln0.Addr().String(), deadAddr}, // successor never listens
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only open member 0; its dialer can never succeed.
	l, err := tr.Open(0)
	if err != nil {
		t.Fatalf("Open(0): %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10000; i++ {
			m := runtime.Message{SN: tokenring.SN(i % 50), CP: core.Execute, PH: 0}
			m.Sum = m.Checksum()
			l.SendState(m)
			l.SendTop()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SendState/SendTop blocked with no connection up")
	}
	tr.Close()
}

// Close is prompt and idempotent while a dialer waits on a peer that never
// answers, and Open after Close fails.
func TestClosePromptAndIdempotent(t *testing.T) {
	tr, err := NewLoopbackRing(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Open(0); err != nil {
		t.Fatal(err)
	}
	// Member 1 is never opened, so member 0's dialer connects to the
	// pre-bound listener's backlog and nothing ever reads its hello; Close
	// must still tear the connection and the dialer down.
	done := make(chan struct{})
	go func() {
		tr.Close()
		tr.Close() // idempotent
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return promptly")
	}
	if _, err := tr.Open(1); err == nil {
		t.Error("Open succeeded on a closed transport")
	}
}

// Double Open of the same member is rejected; out-of-range ids are rejected.
func TestOpenValidation(t *testing.T) {
	tr, _ := openRing(t, 2)
	if _, err := tr.Open(0); err == nil {
		t.Error("double Open(0) succeeded")
	}
	if _, err := tr.Open(-1); err == nil {
		t.Error("Open(-1) succeeded")
	}
	if _, err := tr.Open(2); err == nil {
		t.Error("Open(2) succeeded")
	}
	if _, err := NewTCP(TCPConfig{Peers: []string{"x"}}); err == nil {
		t.Error("NewTCP with 1 peer succeeded")
	}
	if _, err := NewLoopbackRing(1); err == nil {
		t.Error("NewLoopbackRing(1) succeeded")
	}
}

// An end-to-end barrier over the TCP transport: the real protocol engine
// drives loopback sockets and completes barriers, including under injected
// corruption and a mid-run connection break.
func TestBarrierOverTCP(t *testing.T) {
	const (
		n       = 3
		nPhases = 2
		passes  = 30
	)
	tr, err := NewLoopbackRing(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runtime.New(runtime.Config{
		Participants: n,
		NPhases:      nPhases,
		Transport:    tr,
		Resend:       200 * time.Microsecond,
		CorruptRate:  0.01,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		b.Stop()
		tr.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for id := 0; id < n; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < passes; k++ {
				if k == passes/2 && id == 0 {
					tr.BreakLinks(1) // mid-run network blip
				}
				ph, err := b.Await(ctx, id)
				if errors.Is(err, runtime.ErrReset) {
					k--
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("member %d pass %d: %w", id, k, err)
					return
				}
				if want := (k + 1) % nPhases; ph != want {
					errs <- fmt.Errorf("member %d pass %d: phase %d, want %d", id, k, ph, want)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := tr.Stats()
	if st.FramesRecv == 0 {
		t.Error("barrier completed without any TCP frames — transport not exercised")
	}
	t.Logf("transport stats: %+v", st)
}

// The acceptor bounds how many connections may sit in the handshake at
// once: overflow connections are closed on arrival and counted, and the
// legitimate edge still comes up once the flood drains.
func TestAcceptCapBoundsPendingHandshakes(t *testing.T) {
	tr, links := openRing(t, 2, func(c *TCPConfig) {
		c.MaxPending = 2
		c.HandshakeTimeout = 250 * time.Millisecond
	})

	// Flood member 1's listener with connections that never send a hello.
	addr1 := tr.cfg.Peers[1]
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < 10; i++ {
		c, err := net.Dial("tcp", addr1)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}

	deadline := time.Now().Add(10 * time.Second)
	for tr.Stats().AcceptOverflows == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no accept overflows counted; stats %+v", tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if p := tr.Stats().PendingHandshakes; p > 2 {
		t.Errorf("pending handshakes = %d, exceeds cap 2", p)
	}

	// The ring edge 0→1 must still deliver after the silent connections
	// time out and free their slots.
	m := runtime.Message{SN: 9, CP: core.Execute, PH: 1}
	m.Sum = m.Checksum()
	recvDeadline := time.Now().Add(10 * time.Second)
	for {
		links[0].SendState(m)
		select {
		case got := <-links[1].State():
			if got != m {
				t.Fatalf("received %+v, want %+v", got, m)
			}
			return
		case <-time.After(2 * time.Millisecond):
			if time.Now().After(recvDeadline) {
				t.Fatal("legitimate edge never recovered from the flood")
			}
		}
	}
}
