package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The benchmark and the daemons are kept on separate cores: the load
// generator on the last core this process may use, the daemons on the
// others. Left to the kernel, a request's three wake-ups (pacer, server,
// reader) stay on one core in some runs and cross cores in others, and the
// median latency of one build reads 45 µs or 105 µs depending on which —
// the scheduler's choice, not the program's. With one side per core every
// request crosses, in every run.

// cpuSet is a sched_setaffinity(2) mask, enough for 1 024 cores.
type cpuSet [16]uint64

func (s *cpuSet) set(cpu int)      { s[cpu/64] |= 1 << (cpu % 64) }
func (s *cpuSet) has(cpu int) bool { return s[cpu/64]&(1<<(cpu%64)) != 0 }

func (s *cpuSet) cpus() []int {
	var out []int
	for c := 0; c < len(s)*64; c++ {
		if s.has(c) {
			out = append(out, c)
		}
	}
	return out
}

func setAffinity(tid int, s *cpuSet) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if e != 0 {
		return e
	}
	return nil
}

func getAffinity(tid int) (cpuSet, error) {
	var s cpuSet
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s)))
	if e != 0 {
		return s, e
	}
	return s, nil
}

// placement is which cores each side runs on; nil sets mean nothing is
// pinned (the machine offers one core, or refused).
type placement struct {
	loadgen, daemons *cpuSet
}

// placeSelf splits the cores this process may use and moves every thread
// of this process onto the load generator's. Threads the runtime starts
// later are cloned from these and inherit the mask.
func placeSelf() (placement, error) {
	allowed, err := getAffinity(0)
	if err != nil {
		return placement{}, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpus := allowed.cpus()
	if len(cpus) < 2 {
		return placement{}, nil
	}
	var p placement
	p.loadgen, p.daemons = new(cpuSet), new(cpuSet)
	p.loadgen.set(cpus[len(cpus)-1])
	for _, c := range cpus[:len(cpus)-1] {
		p.daemons.set(c)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return placement{}, err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread may have exited since the listing; that is no error.
		if err := setAffinity(tid, p.loadgen); err != nil && err != syscall.ESRCH {
			return placement{}, fmt.Errorf("sched_setaffinity: %w", err)
		}
	}
	return p, nil
}

// startOn runs start — a fork+exec — on a thread moved to the cores of
// set, so that the child inherits them, and moves the thread back. A nil
// set leaves the child where this process is.
func startOn(set *cpuSet, start func() error) error {
	if set == nil {
		return start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	back, err := getAffinity(0)
	if err != nil {
		return fmt.Errorf("sched_getaffinity: %w", err)
	}
	if err := setAffinity(0, set); err != nil {
		return fmt.Errorf("sched_setaffinity: %w", err)
	}
	defer setAffinity(0, &back)
	return start()
}

func (p placement) String() string {
	if p.daemons == nil {
		return "cores not assigned"
	}
	return fmt.Sprintf("load generator on core %v, daemons on %v", p.loadgen.cpus(), p.daemons.cpus())
}
