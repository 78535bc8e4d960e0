package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer puts one sender to sleep until a due time. Each sender owns one.
//
// time.Sleep would do, except that an idle Go runtime rounds sub-
// millisecond timer waits up to a whole millisecond, which the open loop
// would report as pacer lateness on every request of the fast workloads.
// A nanosleep system call is exact but keeps its thread's scheduler slot
// (the P) while it sleeps: with as many sleeping senders as CPUs the
// servers found no free slot, and their answers waited about a
// millisecond for the runtime to take one back. So the pacer arms a
// timerfd, which has nanosecond resolution, and reads it through the
// runtime's network poller, which parks the sender and frees its slot.
type pacer struct {
	f *os.File
}

// Linux's timerfd flags are the O_ flags of the same name.
const (
	tfdNonblock = syscall.O_NONBLOCK
	tfdCloexec  = syscall.O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	f := os.NewFile(fd, "pacer") // non-blocking, so the poller serves its reads
	if f == nil {
		return nil, fmt.Errorf("timerfd_create: bad descriptor %d", fd)
	}
	return &pacer{f: f}, nil
}

func (p *pacer) close() { p.f.Close() }

// sleepUntil blocks the calling goroutine until t.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	rc, err := p.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err = p.f.Read(expirations[:])
	return err
}
