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

// openTree opens every member of a loopback binary-heap tree and returns
// the links.
func openTree(t *testing.T, n int, opts ...Option) (*TCPTree, []runtime.TreeLink) {
	t.Helper()
	tr, err := NewLoopbackTree(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	links := make([]runtime.TreeLink, n)
	for j := 0; j < n; j++ {
		links[j], err = tr.OpenTree(j)
		if err != nil {
			t.Fatalf("OpenTree(%d): %v", j, err)
		}
	}
	return tr, links
}

// Down-frames flow parent→child and up-frames child→parent on the same
// connection (dialed by the parent, the lower index), for every edge of a
// 7-member binary tree.
func TestTreeDelivery(t *testing.T) {
	const n = 7
	_, links := openTree(t, n)

	for child := 1; child < n; child++ {
		parent := (child - 1) / 2

		// Parent → child: resend until the parent's dialed connection is up.
		dm := runtime.Message{SN: tokenring.SN(child), CP: core.Execute, PH: child % 3}
		dm.Sum = dm.Checksum()
		deadline := time.Now().Add(5 * time.Second)
		for {
			links[parent].SendDown(child, dm)
			select {
			case got := <-links[child].Down():
				if got != dm {
					t.Fatalf("child %d received %+v, want %+v", child, got, dm)
				}
			case <-time.After(2 * time.Millisecond):
				if time.Now().Before(deadline) {
					continue
				}
				t.Fatalf("down state never reached child %d", child)
			}
			break
		}

		// Child → parent on the same connection.
		um := runtime.UpMessage{Child: child, SN: tokenring.SN(child), CP: core.Success, PH: 1, AckSN: tokenring.SN(child), AckCP: core.Success, AckPH: 1}
		um.Sum = um.Checksum()
		deadline = time.Now().Add(5 * time.Second)
		for {
			links[child].SendUp(um)
			select {
			case got := <-links[parent].Up():
				if got.Child != child {
					continue // a sibling's retransmission; keep waiting
				}
				if got != um {
					t.Fatalf("parent %d received %+v, want %+v", parent, got, um)
				}
			case <-time.After(2 * time.Millisecond):
				if time.Now().Before(deadline) {
					continue
				}
				t.Fatalf("up state never reached parent of %d", child)
			}
			break
		}
	}
}

// A stranger, a non-neighbour or a child connecting to a tree node is
// rejected at the handshake: parents dial, so a node admits only its
// parent. The root accepts nothing; internal node 1 is the target.
func TestTreeHandshakeRejectsNonChild(t *testing.T) {
	tr, _ := openTree(t, 7)

	addr1 := tr.cfg.Peers[1] // member 1 accepts only its parent, the root
	intruders := [][]byte{
		AppendHello(nil, 5, tr.Digest()),       // not adjacent to member 1
		AppendHello(nil, 3, tr.Digest()),       // a child of member 1: children never dial
		AppendHello(nil, 0, tr.Digest()^0xbad), // the parent, wrong config digest
		AppendFrame(nil, FrameTop, nil),        // not a hello at all
		{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02},   // garbage bytes
	}
	for _, intruder := range intruders {
		c, err := net.Dial("tcp", addr1)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(intruder)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil {
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
	if got := tr.Stats().DigestRejects; got != 1 {
		t.Errorf("digest rejects = %d, want 1", got)
	}
}

// An up-frame whose in-band Child disagrees with the connection's verified
// peer is detected corruption: the connection is dropped, the frame
// discarded.
func TestTreeChildIDCrossCheck(t *testing.T) {
	tr, err := NewLoopbackTree(3)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	root, err := tr.OpenTree(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.OpenTree(1); err != nil {
		t.Fatal(err)
	}

	// Stand in for child 2: own its listener and accept the root's dial.
	ln := tr.listeners[2]
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(5 * time.Second))
	c, err := ln.Accept()
	if err != nil {
		t.Fatalf("root never dialed child 2: %v", err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := NewFrameReader(c, 64)
	typ, payload, err := fr.Read()
	if err != nil || typ != FrameHello {
		t.Fatalf("root's first frame: type %d, err %v; want hello", typ, err)
	}
	if from, digest, err := DecodeHello(payload); err != nil || from != 0 || digest != tr.Digest() {
		t.Fatalf("root's hello: from %d digest %016x err %v", from, digest, err)
	}

	// Child 2 claims to be child 1 in-band.
	forged := runtime.UpMessage{Child: 1, SN: 1, CP: core.Success, PH: 0}
	forged.Sum = forged.Checksum()
	c.Write(AppendUp(nil, 0, forged))
	if _, _, err := fr.Read(); err == nil {
		t.Error("root survived a cross-check violation")
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().DecodeErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cross-check violation not accounted as a decode error")
		}
		time.Sleep(time.Millisecond)
	}
	// The forged frame must not have surfaced.
	select {
	case m := <-root.Up():
		t.Errorf("forged up-message delivered: %+v", m)
	default:
	}
}

// A forcibly broken tree edge redials and delivery resumes.
func TestTreeReconnectAfterBreak(t *testing.T) {
	tr, links := openTree(t, 3)

	send := func(sn tokenring.SN) runtime.UpMessage {
		um := runtime.UpMessage{Child: 1, SN: sn, CP: core.Execute, PH: 0}
		um.Sum = um.Checksum()
		links[1].SendUp(um)
		return um
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		send(1)
		select {
		case <-links[0].Up():
		case <-time.After(2 * time.Millisecond):
			if time.Now().Before(deadline) {
				continue
			}
			t.Fatal("initial connection never delivered")
		}
		break
	}
	dialsBefore := tr.Stats().Dials

	tr.BreakLinks(1) // closes child 1's connection from the root

	deadline = time.Now().Add(10 * time.Second)
	for {
		want := send(7)
		select {
		case got := <-links[0].Up():
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

// Constructor and Open validation.
func TestTreeOpenValidation(t *testing.T) {
	tr, _ := openTree(t, 3)
	if _, err := tr.OpenTree(0); err == nil {
		t.Error("double OpenTree(0) succeeded")
	}
	if _, err := tr.OpenTree(-1); err == nil {
		t.Error("OpenTree(-1) succeeded")
	}
	if _, err := tr.OpenTree(3); err == nil {
		t.Error("OpenTree(3) succeeded")
	}
	if _, err := tr.Open(0); err == nil {
		t.Error("ring Open succeeded on a tree transport")
	}
	if _, err := NewTCPTree(TCPConfig{Peers: []string{"a", "b"}}, []int{-1}); err == nil {
		t.Error("NewTCPTree with mismatched peers/parent succeeded")
	}
	if _, err := NewTCPTree(TCPConfig{Peers: []string{"a", "b"}}, []int{-1, 5}); err == nil {
		t.Error("NewTCPTree with an invalid parent vector succeeded")
	}
	// The path 0 → 1 → 2 is a valid tree but not a k-ary heap.
	if _, err := NewTCPTree(TCPConfig{Peers: []string{"a", "b", "c"}}, []int{-1, 0, 1}); err == nil {
		t.Error("NewTCPTree with a non-heap parent vector succeeded")
	}
	if _, err := NewLoopbackTree(1); err == nil {
		t.Error("NewLoopbackTree(1) succeeded")
	}
}

// An end-to-end tree barrier over TCP: the real protocol engine drives
// loopback sockets through the double-tree refinement, completing barriers
// under injected corruption and a mid-run connection break.
func TestBarrierOverTCPTree(t *testing.T) {
	const (
		n       = 7
		nPhases = 2
		passes  = 30
	)
	tr, err := NewLoopbackTree(n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runtime.New(runtime.Config{
		Participants: n,
		NPhases:      nPhases,
		Topology:     runtime.TopologyTree,
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
					tr.BreakLinks(3) // mid-run network blip on a leaf edge
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
