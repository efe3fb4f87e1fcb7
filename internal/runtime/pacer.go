package runtime

import (
	"container/heap"
	"sync"
	"time"
)

// The process-wide resend pacer. Every retransmission period in the
// runtime is one registration with a single pacer goroutine: the ring
// barriers' quiet-edge sweeps run inline on it, and each tree scheduler
// gets its ticks on a cap-1 channel the pacer feeds without blocking.
// The goroutine sleeps until the earliest registered deadline, fires
// everything due, and parks on a channel while nothing is registered; it
// is started once per process, never per barrier.
//
// Why not time.Ticker: on Linux an idle Go scheduler blocks in epoll_wait
// with a whole-millisecond timeout, so a 200µs ticker in a quiet process
// fires about every 1.1ms, and the quiet-edge rule's two ticks stretch
// the masking of one lost message to 1–2ms. The Linux pacer sleeps on a
// timerfd (pacer_linux.go): its expiry is an ordinary netpoller read
// event, delivered at the deadline, and the sleeping goroutine holds no
// P. (A blocking nanosleep is as punctual but pins a P until sysmon
// retakes it, which slows every other goroutine of a busy process.)
//
// Deadlines of a registration sit on the multiples of its period since
// the pacer started, so registrations of equal period share every
// wakeup however many barriers the process runs.

// sleeper is the pacer's clock. arm replaces the pending wakeup with one
// d from now and may be called while wait blocks; wait returns once the
// armed deadline has passed (or spuriously earlier — the pacer re-checks
// its deadlines on every return).
type sleeper interface {
	arm(d time.Duration)
	wait()
}

// timerSleeper is the portable sleeper, used where no timerfd exists.
type timerSleeper struct{ t *time.Timer }

func newTimerSleeper() *timerSleeper {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &timerSleeper{t}
}

func (s *timerSleeper) arm(d time.Duration) { s.t.Reset(d) }
func (s *timerSleeper) wait()               { <-s.t.C }

// resendPacer is the process's pacer, started on first use.
var resendPacer = sync.OnceValue(func() *pacer { return newPacer(newSleeper()) })

// pacer fires registered periodic deadlines from one goroutine.
type pacer struct {
	mu    sync.Mutex
	s     sleeper
	epoch time.Time
	// timers is a min-heap on next. armed is the deadline the sleeper is
	// armed for, 0 while the goroutine is parked on wake.
	timers timerHeap
	armed  int64
	wake   chan struct{}
}

// resendTimer is one registration. Every period it runs sweep on the
// pacer goroutine (false deregisters it), or, without a sweep, offers a
// tick on C; a tick that finds C full is dropped, as with time.Ticker.
type resendTimer struct {
	C      <-chan struct{}
	c      chan struct{}
	sweep  func() bool
	p      *pacer
	period int64 // ns
	next   int64 // ns since p.epoch, a multiple of period
	idx    int   // position in p.timers; -1 once stopped
}

func newPacer(s sleeper) *pacer {
	p := &pacer{s: s, epoch: time.Now(), wake: make(chan struct{}, 1)}
	go p.run()
	return p
}

// ticker registers a channel tick every period.
func (p *pacer) ticker(period time.Duration) *resendTimer {
	c := make(chan struct{}, 1)
	return p.add(&resendTimer{C: c, c: c, period: int64(period)})
}

// every registers sweep to run on the pacer goroutine every period, under
// the pacer's lock: it must not block or call into the pacer.
func (p *pacer) every(period time.Duration, sweep func() bool) *resendTimer {
	return p.add(&resendTimer{sweep: sweep, period: int64(period)})
}

func (p *pacer) now() int64 { return int64(time.Since(p.epoch)) }

func (p *pacer) add(t *resendTimer) *resendTimer {
	t.p = p
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.now()
	t.next = (now/t.period + 1) * t.period
	heap.Push(&p.timers, t)
	switch {
	case p.armed == 0:
		select {
		case p.wake <- struct{}{}:
		default:
		}
	case t.next < p.armed:
		// Due before the sleeper's deadline: pull the wakeup in.
		p.armed = t.next
		p.s.arm(time.Duration(t.next - now))
	}
	return t
}

// Stop deregisters t; no tick or sweep of t starts after Stop returns.
// It is idempotent.
func (t *resendTimer) Stop() {
	p := t.p
	p.mu.Lock()
	if t.idx >= 0 {
		heap.Remove(&p.timers, t.idx)
	}
	p.mu.Unlock()
}

func (p *pacer) run() {
	p.mu.Lock()
	for {
		if len(p.timers) == 0 {
			p.armed = 0
			p.mu.Unlock()
			<-p.wake
			p.mu.Lock()
			continue
		}
		now := p.now()
		for len(p.timers) > 0 && p.timers[0].next <= now {
			t := p.timers[0]
			if t.sweep != nil {
				if !t.sweep() {
					heap.Remove(&p.timers, 0)
					continue
				}
			} else {
				select {
				case t.c <- struct{}{}:
				default:
				}
			}
			// The next multiple of the period: a late wakeup skips the
			// missed ticks instead of bursting them.
			t.next = (now/t.period + 1) * t.period
			heap.Fix(&p.timers, 0)
		}
		if len(p.timers) == 0 {
			continue
		}
		p.armed = p.timers[0].next
		p.s.arm(time.Duration(p.armed - now))
		p.mu.Unlock()
		p.s.wait()
		p.mu.Lock()
	}
}

type timerHeap []*resendTimer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].next < h[j].next }
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*resendTimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	t.idx = -1
	*h = old[:len(old)-1]
	return t
}
