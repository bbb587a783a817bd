package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until absolute deadlines with microsecond precision. It
// arms a timerfd and reads it through the Go netpoller: the goroutine
// parks without holding a P, and the timer (an hrtimer without slack)
// wakes it on time. time.Sleep rounds sub-millisecond waits up to the
// netpoller's millisecond epoll timeout when the process is idle, which
// would swamp the latencies being measured.
type pacer struct {
	fd  uintptr // the raw timerfd: os.File.Fd would switch it to blocking mode
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep waits d (nothing when d <= 0).
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	var spec struct{ interval, value syscall.Timespec }
	spec.value = syscall.NsecToTimespec(int64(d))
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
