package runtime

import "testing"

// On Linux the pacer sleeps on a timerfd, not on a Go timer, whose idle
// wakeups round up to whole milliseconds.
func TestPacerSleepsOnTimerfd(t *testing.T) {
	if _, ok := resendPacer().s.(*timerfdSleeper); !ok {
		t.Fatalf("process pacer sleeps on %T, want *timerfdSleeper", resendPacer().s)
	}
}
