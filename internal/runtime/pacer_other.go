//go:build !linux

package runtime

func newSleeper() sleeper { return newTimerSleeper() }
