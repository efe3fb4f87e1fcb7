package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/runtime"
)

// Span names. A span is recorded by the benchmark's own code around a
// call into one layer; nothing inside the program is instrumented.
const (
	spAwait     uint8 = iota // one participant Await, parent of its Enter and Leave
	spEnter                  // runtime.Barrier.Enter
	spLeave                  // runtime.Barrier.Leave
	spSendState              // runtime.Link.SendState
	spSendTop                // runtime.Link.SendTop
	spMicro                  // one batch of isolated timed calls (see micro.go)
)

var spanNames = [...]string{"await", "enter", "leave", "link.send_state", "link.send_top", "micro"}

// span is one timed call. Spans of one barrier pass share pass, the
// pass index in its group; parent is the id of the enclosing span (0 for
// a root). A send runs on a protocol goroutine, not under any one Await,
// so it is a root tagged with the pass its group was in when it ran.
type span struct {
	name       uint8
	id, parent uint64
	pass       int64
	start, end int64
	label      string // micro batches: the function timed
}

// spanCap bounds the spans one recorder keeps in memory; later spans are
// still aggregated into the latency histograms but only counted here.
const spanCap = 2048

// recorder is one goroutine's span buffer. Only its owner writes it; the
// tracer reads it after that goroutine has exited.
type recorder struct {
	idx     uint64
	seq     uint64
	spans   []span
	dropped int64
}

func (r *recorder) next() uint64 {
	r.seq++
	return r.idx<<32 | r.seq
}

func (r *recorder) put(s span) {
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
}

// tracer owns every recorder of a run and the switch that turns span
// recording on for the traced window.
type tracer struct {
	on   atomic.Bool
	mu   sync.Mutex
	recs []*recorder
}

func (t *tracer) newRecorder() *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &recorder{idx: uint64(len(t.recs) + 1), spans: make([]span, 0, spanCap)}
	t.recs = append(t.recs, r)
	return r
}

// counts returns the spans kept and the spans dropped at the cap.
func (t *tracer) counts() (kept, dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.recs {
		kept += int64(len(r.spans))
		dropped += r.dropped
	}
	return kept, dropped
}

// write stores every kept span as tab-separated text, one span a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tpass\tname\tstart_ns\tend_ns")
	t.mu.Lock()
	for _, r := range t.recs {
		for _, s := range r.spans {
			name := spanNames[s.name]
			if s.label != "" {
				name = s.label
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.pass, name, s.start, s.end)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRing wraps a ring transport so that every Link.SendState and
// SendTop call is timed while the tracer is on. pass reports the group's
// current pass for tagging the send spans.
type tracedRing struct {
	inner runtime.Transport
	t     *tracer
	pass  func() int64

	mu    sync.Mutex
	links []*tracedLink
}

func (w *tracedRing) Open(id int) (runtime.Link, error) {
	l, err := w.inner.Open(id)
	if err != nil {
		return nil, err
	}
	tl := &tracedLink{Link: l, w: w, rec: w.t.newRecorder()}
	w.mu.Lock()
	w.links = append(w.links, tl)
	w.mu.Unlock()
	return tl, nil
}

func (w *tracedRing) Close() error { return w.inner.Close() }

// tracedLink is one member's wrapped link. Its protocol goroutine is the
// only caller of the send methods, so hist and calls need no lock; they
// are read after the barrier has stopped.
type tracedLink struct {
	runtime.Link
	w     *tracedRing
	rec   *recorder
	hist  latHist
	calls int64
}

func (l *tracedLink) SendState(m runtime.Message) {
	if !l.w.t.on.Load() {
		l.Link.SendState(m)
		return
	}
	t0 := now()
	l.Link.SendState(m)
	l.done(spSendState, t0)
}

func (l *tracedLink) SendTop() {
	if !l.w.t.on.Load() {
		l.Link.SendTop()
		return
	}
	t0 := now()
	l.Link.SendTop()
	l.done(spSendTop, t0)
}

func (l *tracedLink) done(name uint8, t0 int64) {
	t1 := now()
	l.hist.record(t1 - t0)
	l.calls++
	l.rec.put(span{name: name, id: l.rec.next(), pass: l.w.pass(), start: t0, end: t1})
}
