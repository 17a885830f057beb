package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// This machine's cores are virtual. When the host runs someone else on
// them the guest stands still, and /proc/stat counts that time as steal.
// A run here meets such episodes a second or two long in which every
// latency is tens of times its usual value and throughput a fraction of
// it; they say nothing about the program. So both phases are cut into
// windows, the steal of each window is read, and the medians are taken
// over the windows the machine was the benchmark's own.

// stealTick is one reading of the machine's cumulative steal time.
type stealTick struct {
	t      int64   // run clock, ns
	stolen float64 // CPU-seconds the host gave to someone else, all cores
}

// maxStealShare is the steal, as a share of the window's CPU time, above
// which a window is left out. An undisturbed run reads well under 0.005.
const maxStealShare = 0.02

// minQuietShare is the share of windows that must remain; with fewer the
// run is measured whole and says so.
const minQuietShare = 1.0 / 3

// parseSteal extracts steal (the eighth value of the aggregate cpu line,
// in clock ticks) and the number of cores from /proc/stat.
func parseSteal(stat string) (seconds float64, cpus int, err error) {
	found := false
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) >= 9 && f[0] == "cpu":
			ticks, err := strconv.ParseFloat(f[8], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("malformed /proc/stat steal: %v", err)
			}
			seconds, found = ticks/clockTick, true
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			cpus++
		}
	}
	if !found || cpus == 0 {
		return 0, 0, fmt.Errorf("no cpu lines in /proc/stat")
	}
	return seconds, cpus, nil
}

func readSteal(clk clock) (stealTick, int, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTick{}, 0, err
	}
	s, cpus, err := parseSteal(string(b))
	return stealTick{t: clk.now(), stolen: s}, cpus, err
}

// stealLog reads the steal counter every interval until finish.
type stealLog struct {
	ticks []stealTick
	cpus  int
	err   error
	stop  chan struct{}
	done  chan struct{}
}

func startStealLog(clk clock, every time.Duration) *stealLog {
	l := &stealLog{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			t, cpus, err := readSteal(clk)
			if err != nil {
				l.err = err
				return
			}
			l.ticks, l.cpus = append(l.ticks, t), cpus
			select {
			case <-tk.C:
			case <-l.stop:
				return
			}
		}
	}()
	return l
}

// finish takes a last reading and returns the windows' steal.
func (l *stealLog) finish(clk clock) (stealWindows, error) {
	close(l.stop)
	<-l.done
	if l.err != nil {
		return stealWindows{}, l.err
	}
	t, cpus, err := readSteal(clk)
	if err != nil {
		return stealWindows{}, err
	}
	return stealWindows{ticks: append(l.ticks, t), cpus: cpus}, nil
}

// stealWindows is a phase cut at its steal readings: window i runs from
// ticks[i].t to ticks[i+1].t.
type stealWindows struct {
	ticks []stealTick
	cpus  int
}

func (w stealWindows) n() int { return len(w.ticks) - 1 }

// share is the steal of window i as a share of its CPU time.
func (w stealWindows) share(i int) float64 {
	a, b := w.ticks[i], w.ticks[i+1]
	if b.t <= a.t {
		return 0
	}
	return (b.stolen - a.stolen) / (float64(b.t-a.t) / 1e9 * float64(w.cpus))
}

// total is the steal of the whole phase as a share of its CPU time.
func (w stealWindows) total() float64 {
	return stealWindows{ticks: []stealTick{w.ticks[0], w.ticks[w.n()]}, cpus: w.cpus}.share(0)
}

// quiet marks the windows whose steal is within maxStealShare. When fewer
// than minQuietShare of them are, the machine was never the benchmark's
// own: every window is marked, the run is measured as it is, and
// use.filtered says so.
func (w stealWindows) quiet() (keep []bool, use stealUse) {
	keep = make([]bool, w.n())
	use = stealUse{total: w.total(), windows: w.n(), filtered: true}
	for i := range keep {
		if w.share(i) <= maxStealShare {
			keep[i] = true
			use.quiet++
		}
	}
	if float64(use.quiet) < minQuietShare*float64(use.windows) {
		use.filtered = false
		for i := range keep {
			keep[i] = true
		}
	}
	return keep, use
}

// window is the index of the window t falls in, or -1.
func (w stealWindows) window(t int64) int {
	if w.n() < 1 || t < w.ticks[0].t || t >= w.ticks[w.n()].t {
		return -1
	}
	lo, hi := 0, w.n()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if w.ticks[mid].t <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// stealUse is what a phase reports about its steal: the whole phase's
// share, and how many of its windows the medians were taken over.
type stealUse struct {
	total          float64
	windows, quiet int
	filtered       bool // false: too few quiet windows, so all were used
}
