package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a due time in a blocking read on a Linux timerfd:
// the kernel wakes the reading thread when the timer fires, with
// high-resolution timer precision, and Go's scheduler lends the
// thread's processor to other goroutines meanwhile. Go's own timers
// park an idle process in the network poller, which wakes with
// millisecond granularity.
type pacer struct{ fd int }

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{fd: int(fd)}, nil
}

func (p *pacer) close() { _ = syscall.Close(p.fd) }

// sleepUntil returns at t, or at once when t has passed.
func (p *pacer) sleepUntil(t time.Time) error {
	var buf [8]byte
	for {
		d := time.Until(t)
		if d <= 0 {
			return nil
		}
		// struct itimerspec: no interval, a relative expiry of d.
		spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
		_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
		if errno != 0 {
			return os.NewSyscallError("timerfd_settime", errno)
		}
		if _, err := syscall.Read(p.fd, buf[:]); err != nil && err != syscall.EINTR {
			return os.NewSyscallError("read timerfd", err)
		}
	}
}
