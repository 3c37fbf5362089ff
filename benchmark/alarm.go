package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// alarm wakes its goroutine at a given time to within some 100 µs.
//
// time.Sleep cannot: when the process has nothing else to run, the Go
// runtime waits for the next timer inside epoll_wait, whose timeout is in
// whole milliseconds, so a sleeper wakes up to 1 ms late — half a
// millisecond at the median, which is a third of reach_local's latency. A
// timerfd is a file the netpoller watches like a socket: the kernel's
// high-resolution timer makes it readable, and the read below returns, with
// no thread blocked and no processor held in the meantime.
type alarm struct {
	fd uintptr  // for timerfd_settime; File.Fd would switch the file to blocking mode
	f  *os.File // for the read that waits
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800   // O_NONBLOCK: lets os.File hand the fd to the netpoller
	tfdCloexec     = 0x80000 // O_CLOEXEC
)

func newAlarm() (*alarm, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &alarm{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (a *alarm) close() { a.f.Close() }

// until returns at t, or at once when t has passed.
func (a *alarm) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec: the interval (none: fire once), then the delay.
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, a.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var fired [8]byte
	_, err := a.f.Read(fired[:])
	return err
}
