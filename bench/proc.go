package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns everything a run leaves on the machine — child daemons and
// temp dirs — so one cleanup call (deferred in main, and on SIGINT/SIGTERM)
// removes it all. Children are also started with Pdeathsig, so they die
// with the benchmark even when it is killed or panics.
type procs struct {
	place    placement // cores the children are started on
	mu       sync.Mutex
	children []*child
	dirs     []string
}

func (p *procs) tempDir(parent, prefix string) (string, error) {
	dir, err := os.MkdirTemp(parent, prefix)
	if err != nil {
		return "", err
	}
	p.mu.Lock()
	p.dirs = append(p.dirs, dir)
	p.mu.Unlock()
	return dir, nil
}

// cleanup kills every live child, waits for each, and removes the temp
// dirs. Safe to call more than once.
func (p *procs) cleanup() {
	p.mu.Lock()
	children, dirs := p.children, p.dirs
	p.children, p.dirs = nil, nil
	p.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// child is one daemon process. Its stdout carries the "listening on"
// line; both streams are kept for the failure report.
type child struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	startS  float64 // exec → listening
	out     lockedBuffer
	exited  chan struct{} // closed once Wait returned
	waitErr error
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

const readyTimeout = 30 * time.Second

// start launches bin and waits until it announces its listen address. A
// child that exits or stays silent is an error carrying its output.
func (p *procs) start(name, bin string, args ...string) (*child, error) {
	c := &child{name: name, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.cmd.Stderr = &c.out
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := startOn(p.place.daemons, c.cmd.Start); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p.mu.Lock()
	p.children = append(p.children, c)
	p.mu.Unlock()

	ready := make(chan string, 1) // the one address line
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			io.WriteString(&c.out, line+"\n")
			if i := strings.LastIndex(line, "listening on "); i >= 0 && c.addr == "" {
				c.addr = strings.TrimSpace(line[i+len("listening on "):])
				ready <- c.addr
			}
		}
	}()
	go func() {
		<-scanned // Wait closes the pipe; let the scanner drain it first
		c.waitErr = c.cmd.Wait()
		close(c.exited)
	}()
	select {
	case <-ready:
		c.startS = time.Since(t0).Seconds()
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", name, c.waitErr, c.out.String())
	case <-time.After(readyTimeout):
		c.kill()
		return nil, fmt.Errorf("%s not listening after %s\n%s", name, readyTimeout, c.out.String())
	}
}

// kill SIGKILLs the child and waits until it is gone.
func (c *child) kill() {
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
	<-c.exited
}

// alive reports whether the child is still running; a daemon that exits
// mid-run fails the run.
func (c *child) alive() error {
	select {
	case <-c.exited:
		return fmt.Errorf("%s exited early: %v\n%s", c.name, c.waitErr, c.out.String())
	default:
		return nil
	}
}

// cpuSeconds reads utime+stime of the child from /proc/<pid>/stat.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// clockTick is USER_HZ, fixed at 100 on Linux.
const clockTick = 100

// parseStatCPU extracts utime+stime (fields 14 and 15) in seconds. The
// comm field may hold spaces and parentheses, so fields count from the
// last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	f := strings.Fields(stat[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times")
	}
	return (utime + stime) / clockTick, nil
}

// rssMB reads the child's peak resident set (VmHWM) in MiB.
func (c *child) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// buildDaemons compiles qosd and qosproxy from the checkout at root into
// binDir and returns how long that took (printed, never part of setup_s).
func buildDaemons(root, binDir string) (time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/qosd", "./cmd/qosproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/qosd ./cmd/qosproxy: %v\n%s", err, out)
	}
	return time.Since(t0), nil
}
