package main

import (
	"runtime"
	"syscall"
	"time"
)

// The Go runtime parks an idle thread in epoll_wait, whose timeout is in
// whole milliseconds, so time.Sleep overshoots sub-millisecond waits by
// up to a millisecond — as much as a whole request at the rates used
// here, all of it charged to latency because requests are timed from
// their due time. An open-loop generator needs a finer clock without
// spinning (a spinning generator would take a core from the servers it
// measures): nanosleep on a locked thread with the timer slack lowered.

const prSetTimerslack = 29 // PR_SET_TIMERSLACK

// pinForPreciseSleep locks the calling goroutine to its thread and
// lowers that thread's timer slack from the default 50µs to 1µs.
func pinForPreciseSleep() (unpin func()) {
	runtime.LockOSThread()
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0) //nolint:errcheck // best effort: default slack still works
	return runtime.UnlockOSThread
}

// preciseSleep blocks the calling thread for d in the kernel.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}
