package runtime

import (
	"sync/atomic"
	"testing"
	"time"
)

// Each test runs its own pacer, so registrations of concurrently running
// barriers on the process pacer cannot move its deadlines.

// recvTick waits for one tick on t, failing the test after timeout.
func recvTick(t *testing.T, tk *resendTimer, timeout time.Duration) {
	t.Helper()
	select {
	case <-tk.C:
	case <-time.After(timeout):
		t.Fatalf("no tick within %v", timeout)
	}
}

func TestPacerDeliversTicks(t *testing.T) {
	p := newPacer(newSleeper())
	a := p.ticker(time.Millisecond)
	defer a.Stop()
	b := p.ticker(3 * time.Millisecond)
	defer b.Stop()
	var sweeps atomic.Int64
	s := p.every(2*time.Millisecond, func() bool { sweeps.Add(1); return true })
	defer s.Stop()
	for i := 0; i < 5; i++ {
		recvTick(t, a, 5*time.Second)
		recvTick(t, b, 5*time.Second)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sweeps.Load() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("sweep ran %d times, want >= 5", sweeps.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPacerStop(t *testing.T) {
	p := newPacer(newSleeper())
	tk := p.ticker(time.Millisecond)
	recvTick(t, tk, 5*time.Second)
	var sweeps atomic.Int64
	s := p.every(time.Millisecond, func() bool { sweeps.Add(1); return true })
	for sweeps.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	tk.Stop()
	s.Stop()
	tk.Stop() // idempotent
	select {
	case <-tk.C: // a tick offered before Stop may still be buffered
	default:
	}
	n := sweeps.Load()
	time.Sleep(20 * time.Millisecond) // 20 periods
	select {
	case <-tk.C:
		t.Fatal("tick after Stop")
	default:
	}
	if got := sweeps.Load(); got != n {
		t.Fatalf("sweep ran %d times after Stop", got-n)
	}

	// A sweep that reports false deregisters itself after one run.
	var once atomic.Int64
	p.every(time.Millisecond, func() bool { once.Add(1); return false })
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		left := len(p.timers)
		p.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d registrations left, want 0", left)
		}
		time.Sleep(time.Millisecond)
	}
	if got := once.Load(); got != 1 {
		t.Fatalf("self-deregistering sweep ran %d times, want 1", got)
	}
}

// A registration due before the sleeper's armed deadline must pull the
// wakeup in: with an hour-long registration armed, a millisecond one
// still ticks.
func TestPacerShorterRegistrationRearms(t *testing.T) {
	p := newPacer(newSleeper())
	long := p.ticker(time.Hour)
	defer long.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		sleeping := p.armed == long.next
		p.mu.Unlock()
		if sleeping {
			break // the goroutine sleeps until the hour deadline
		}
		if time.Now().After(deadline) {
			t.Fatal("pacer never armed the hour-long deadline")
		}
		time.Sleep(time.Millisecond)
	}
	short := p.ticker(time.Millisecond)
	defer short.Stop()
	for i := 0; i < 3; i++ {
		recvTick(t, short, 5*time.Second)
	}
}

func TestPacerTickAllocs(t *testing.T) {
	p := newPacer(newSleeper())
	tk := p.ticker(200 * time.Microsecond)
	defer tk.Stop()
	recvTick(t, tk, 5*time.Second)
	if a := testing.AllocsPerRun(50, func() { <-tk.C }); a != 0 {
		t.Fatalf("%.1f allocs per tick, want 0", a)
	}
}
