package main

import (
	"time"
)

// wakeScale is what the paced phase's median latencies are multiplied by:
// the workload's reference timer wake-up cost over the one this run
// measured (the generator's median lateness, which is the time a sleeping
// core of this machine takes to run the thread a timer woke).
//
// A paced request is a handful of thread wake-ups in a row — the pacer's,
// the server's, the reader's — on cores that slept since the last request,
// and the cost of one drifts with the host by ±15 % from run to run and
// 2× over a day. The median latency follows it exactly: over fifty runs
// it was 5.05–5.35 wake-ups on admit whatever the wake-up cost, while in
// microseconds it spread 11–19 %. Stating the median at a fixed wake-up
// cost leaves what the program contributes — how many wake-ups its path
// strings together and the work between them. The raw medians are printed
// beside it. A pack PUT is not scaled: it waits out three 2 ms commit
// timers, which no wake-up cost moves. The on-time fractions are not
// scaled either; their limits are wall-clock.
func wakeScale(w workload, lateP50US float64) (read, write float64) {
	if lateP50US <= 0 {
		return 1, 1
	}
	s := w.refWakeUS / lateP50US
	if w.pack {
		return s, 1
	}
	return s, s
}

// runMeasured is the run the end-to-end metrics come from, tracing off:
// set-up (timed several times), an open-loop paced phase and a closed-loop
// saturated phase that share the measuring time as the workload says, then
// the correctness checks.
func runMeasured(cfg *config, w workload) (*result, error) {
	r := newResult(w, false)
	ops, err := genOps(w, cfg.seed, streamLen)
	if err != nil {
		return nil, err
	}

	var e *env
	var setups []float64
	spent := 0.0
	for i := 0; i < setupRepeats || (spent < setupCheapS && i < setupMaxRepeats); i++ {
		if e != nil {
			e.tearDown()
		}
		if e, err = setUp(cfg, w); err != nil {
			return nil, err
		}
		setups = append(setups, e.setupS)
		spent += e.setupS
	}
	defer e.tearDown()
	r.set(endToEnd, "setup_s", median(setups))

	clk := clock{time.Now()}
	l, err := goLive(e, ops, clk)
	if err != nil {
		return nil, err
	}
	defer l.close()

	paced := time.Duration(cfg.seconds * w.pacedShare * float64(time.Second))
	pr, err := l.runPaced(paced, nil)
	if err != nil {
		return nil, err
	}
	satPhase := time.Duration(cfg.seconds*float64(time.Second)) - paced
	sat, err := l.g.saturated(ops, pr.sent, satPhase, satPhase/6)
	if err != nil {
		return nil, err
	}
	if err := e.alive(); err != nil {
		return nil, err
	}
	t := l.tally(r, pr.lost+sat.lost)

	reads := latenciesUS(pr.samples, false, true)
	writes := latenciesUS(pr.samples, true, true)
	late := latenessUS(pr.samples)
	readScale, writeScale := wakeScale(w, quantile(late, 0.5))
	r.set(endToEnd, "ops_s", sat.opsPerSec)
	r.set(endToEnd, "read_p50_us", quantile(reads, 0.5)*readScale)
	r.set(endToEnd, "write_p50_us", quantile(writes, 0.5)*writeScale)
	rf, rn := onTimeFrac(pr.samples, false, int64(w.readLimit))
	wf, wn := onTimeFrac(pr.samples, true, int64(w.writeLimit))
	r.set(endToEnd, "read_ontime_frac", rf)
	r.set(endToEnd, "write_ontime_frac", wf)

	r.set(endToEnd, "ok_frac", 1-float64(r.Failed+t.rejected)/float64(r.Attempted))

	// Bytes stored per byte of live user data. The timing-only workloads
	// store no payload bytes, so nothing can be amplified: they read 1.
	amp := 1.0
	if w.pack {
		stored, err := dirBytes(e.dataDir)
		if err != nil {
			return nil, err
		}
		amp = float64(stored) / float64(packBlocks*payloadSize)
		restartS, err := e.crashAndReadBack(l.g)
		if err != nil {
			r.fail("%v", err)
		}
		r.Info["qosd.recover_s"] = restartS
	}
	r.set(endToEnd, "space_amp", amp)

	r.Info["loadgen.late_p50_us"] = quantile(late, 0.5)
	r.Info["loadgen.read_p50_raw_us"] = quantile(reads, 0.5)
	r.Info["loadgen.write_p50_raw_us"] = quantile(writes, 0.5)
	r.Info["loadgen.wake_scale"] = readScale
	r.Info["loadgen.late_p99_us"], _ = tail(late, 0.99)
	r.Info["loadgen.read_p99_us"], _ = tail(reads, 0.99)
	r.Info["loadgen.write_p99_us"], _ = tail(writes, 0.99)
	r.Info["loadgen.read_samples"] = float64(rn)
	r.Info["loadgen.write_samples"] = float64(wn)
	r.Info["paced.sent"] = float64(pr.sent)
	r.Info["saturated.replies"] = float64(sat.replies)
	r.Info["rejected"] = float64(t.rejected)
	r.noteLateness(r.Info["loadgen.late_p99_us"])
	r.noteSteal("paced", pr.steal)
	r.noteSteal("saturated", sat.steal)
	return r, nil
}
