//go:build linux

package runtime

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerfdSleeper sleeps on a CLOCK_MONOTONIC timerfd. The descriptor is
// non-blocking and wrapped with os.NewFile, so wait is a netpoller read:
// the goroutine parks without holding a P, and the expiry wakes it at the
// deadline rather than at the idle scheduler's next millisecond.
type timerfdSleeper struct {
	fd   uintptr
	f    *os.File
	spec struct{ interval, value syscall.Timespec } // struct itimerspec
	buf  [8]byte                                    // expiration count
}

const clockMonotonic = 1

func newSleeper() sleeper {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return newTimerSleeper() // e.g. a seccomp profile without timerfd
	}
	return &timerfdSleeper{fd: fd, f: os.NewFile(fd, "resend-pacer")}
}

// arm sets a one-shot relative expiry. timerfd_settime on our own valid
// descriptor with a normalised, positive it_value cannot fail, so its
// result is not checked.
func (s *timerfdSleeper) arm(d time.Duration) {
	if d <= 0 {
		d = 1 // a zero it_value would disarm the timer
	}
	s.spec.value = syscall.NsecToTimespec(int64(d))
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0,
		uintptr(unsafe.Pointer(&s.spec)), 0, 0, 0)
}

// wait blocks until the timer expires. A timerfd read fails only with
// EAGAIN (handled by the poller) or, with flags not used here, ECANCELED;
// the result is not needed beyond consuming the expiration count.
func (s *timerfdSleeper) wait() { s.f.Read(s.buf[:]) }
