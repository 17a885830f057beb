package experiments

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/flashsim"
	"flashqos/internal/sampling"
	"flashqos/internal/trace"
)

// ConcurrentStatRow is one admission mode's slice of the parallel
// statistical-admission experiment.
type ConcurrentStatRow struct {
	Mode       string  // "deterministic" or "eps=<ε>"
	Epsilon    float64 // 0 for the deterministic baseline
	Goroutines int

	Offered   int     // trace records submitted
	HorizonMS float64 // trace duration

	// AdmittedInHorizon counts requests admitted inside the trace horizon.
	// The statistical controller over-admits past S while Q < ε, so its
	// count must at least match the deterministic baseline's (bursts clear
	// sooner instead of queueing into later windows).
	AdmittedInHorizon int

	// Violation accounting over T-windows of the horizon: a window is
	// violated when any of its admitted requests finished past the
	// deterministic guarantee. Submission is ticket-ordered, so the
	// violated set is the one a single submitter produces, whatever the
	// goroutine count.
	Violated    []int64 // violated windows, ascending
	ViolWindows int
	Windows     int
	ViolRate    float64
	FinalQ      float64 // controller's own estimate after the run

	// WallOpsPerSec is the measured end-to-end submit rate (host-dependent;
	// reported for the within-2×-of-deterministic throughput claim, gated
	// in CI by BenchmarkConcurrentStatistical rather than asserted here).
	WallOpsPerSec float64
}

// String renders a row for qosbench.
func (r ConcurrentStatRow) String() string {
	return fmt.Sprintf("%-13s g=%d admitted=%6d/%d viol=%4d/%6d windows (rate=%.5f) Q=%.5f wall=%.0f ops/s",
		r.Mode, r.Goroutines, r.AdmittedInHorizon, r.Offered,
		r.ViolWindows, r.Windows, r.ViolRate, r.FinalQ, r.WallOpsPerSec)
}

// ConcurrentStatistical measures the parallelized statistical admission
// path (core statGate) against the deterministic baseline under identical
// bursty load: an exchange-like trace (reproducible from seed), submitted
// through one core.System in each mode by `goroutines` workers in ticket
// order — record i is submitted only after record i-1's Submit returned,
// so the engine sees arrivals in arrival order while consecutive
// submissions run on different goroutines. Every row is therefore
// reproducible and equal to a one-submitter run's; the goroutine count only
// moves WallOpsPerSec. The bursty sub-capacity shape matters: the §III-B
// estimator prices interval-size risk, so its ε contract holds in the
// regime where queues drain between bursts — sustained overload would
// measure queueing collapse, not the admission tradeoff.
func ConcurrentStatistical(goroutines int, seed int64, scale, epsilon float64, trials int) ([]ConcurrentStatRow, error) {
	if goroutines < 1 {
		return nil, fmt.Errorf("statparallel: need at least one submitter, got %d", goroutines)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("statparallel: trace scale must be positive, got %g", scale)
	}
	if epsilon <= 0 || epsilon >= 1 {
		return nil, fmt.Errorf("statparallel: epsilon must be in (0,1), got %g", epsilon)
	}
	if trials < 1 {
		return nil, fmt.Errorf("statparallel: need at least one sampling trial, got %d", trials)
	}
	tr, err := trace.ExchangeLike(seed, scale)
	if err != nil {
		return nil, err
	}
	offered := len(tr.Records)
	horizon := float64(tr.NumIntervals()) * tr.IntervalMS

	base, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		return nil, err
	}
	// One pinned table for the statistical run, workers fixed so the P_k
	// estimate is identical across hosts.
	tab, err := sampling.Estimate(base.Allocator(), sampling.Options{MaxK: 25, Trials: trials, Seed: 3})
	if err != nil {
		return nil, err
	}

	rows := make([]ConcurrentStatRow, 0, 2)
	for _, mode := range []struct {
		name string
		eps  float64
	}{
		{"deterministic", 0},
		{fmt.Sprintf("eps=%g", epsilon), epsilon},
	} {
		cfg := core.Config{Design: design.Paper931(), Epsilon: mode.eps}
		if mode.eps > 0 {
			cfg.Table = tab
		}
		cs, err := core.New(cfg)
		if err != nil {
			return nil, err
		}

		outs := make([]core.Outcome, offered)
		// One token circulates the ring: worker g submits records g,
		// g+goroutines, ... and passes the turn on when each Submit returns.
		turn := make([]chan struct{}, goroutines)
		for g := range turn {
			turn[g] = make(chan struct{}, 1)
		}
		turn[0] <- struct{}{}
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < offered; i += goroutines {
					<-turn[g]
					outs[i] = cs.Submit(tr.Records[i].Arrival, tr.Records[i].Block)
					turn[(g+1)%goroutines] <- struct{}{}
				}
			}(g)
		}
		wg.Wait()
		wall := time.Since(start)

		admitted := 0
		viol := map[int64]bool{}
		var lastWindow int64
		for _, out := range outs {
			if out.Rejected {
				continue
			}
			if out.Admitted < horizon {
				admitted++
			}
			w := cs.Window(out.Admitted)
			if w > lastWindow {
				lastWindow = w
			}
			if out.Response() > flashsim.DefaultReadLatency+1e-9 {
				viol[w] = true
			}
		}
		windows := int(lastWindow) + 1
		violated := make([]int64, 0, len(viol))
		for w := range viol {
			violated = append(violated, w)
		}
		slices.Sort(violated)
		rows = append(rows, ConcurrentStatRow{
			Mode:              mode.name,
			Epsilon:           mode.eps,
			Goroutines:        goroutines,
			Offered:           offered,
			HorizonMS:         horizon,
			AdmittedInHorizon: admitted,
			Violated:          violated,
			ViolWindows:       len(viol),
			Windows:           windows,
			ViolRate:          float64(len(viol)) / float64(windows),
			FinalQ:            cs.Q(),
			WallOpsPerSec:     float64(offered) / wall.Seconds(),
		})
	}
	return rows, nil
}
