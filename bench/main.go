// Command bench is the repo's wall-clock benchmark: it builds qosd and
// qosproxy from the checkout it runs in, starts them as child processes,
// drives them over the binary protocol on loopback from this one process,
// verifies every reply, and prints every metric by name and unit. See
// README.md in this directory and BENCHMARK.json at the checkout root.
//
//	bash bench/run.sh                       # all five workloads, end-to-end metrics
//	bash bench/run.sh --trace 1             # the traced run: per-layer metrics and spans
//	bash bench/run.sh --workload pack_read --seed 7 --seconds 12 --trace 0
//	bash bench/run.sh -check                # the suite twice; fails outside the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// maxConns caps the load generator's connections: one process, at most
// one connection per core, never more than two.
const maxConns = 2

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	os.Exit(code)
}

// run returns the exit code: 2 for a bad command line, 1 for a run that
// failed or measured something incorrect.
func run() (int, error) {
	var (
		root     = flag.String("root", "..", "checkout root (run.sh passes it; the default suits `go run .` in bench/)")
		workName = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 42, "seed of arrival gaps, block sequence, read/write choice and tenant tag")
		seconds  = flag.Float64("seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = the traced run (per-layer metrics, spans) instead of the measured one")
		short    = flag.Bool("short", false, "6 s runs for smoke testing; results are flagged non-comparable")
		check    = flag.Bool("check", false, "run the measured suite twice and fail unless set B is within every bound of set A")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return 2, fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	todo := workloads
	if *workName != "all" {
		w, ok := findWorkload(*workName)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", *workName)
		}
		todo = []workload{w}
	}

	dir, err := filepath.Abs(*root)
	if err != nil {
		return 1, err
	}
	if st, err := os.Stat(filepath.Join(dir, "cmd", "qosd")); err != nil || !st.IsDir() {
		return 1, fmt.Errorf("%s is not a flashqos checkout (no cmd/qosd)", dir)
	}
	spec, err := loadSpec(filepath.Join(dir, "BENCHMARK.json"))
	if err != nil {
		return 1, err
	}
	build := filepath.Join(dir, ".bench_build")
	cfg := &config{
		binDir:  filepath.Join(build, "bin"),
		outDir:  filepath.Join(dir, "bench", "out"),
		seed:    *seed,
		seconds: *seconds,
		conns:   min(runtime.NumCPU(), maxConns),
		procs:   &procs{},
	}
	if *short && cfg.seconds == 0 {
		cfg.seconds = 6
	}
	if cfg.seconds == 0 {
		cfg.seconds = float64(spec.RunSeconds)
	}
	if cfg.seconds < 1 {
		return 2, fmt.Errorf("-seconds must be at least 1")
	}
	sameLength := cfg.seconds == float64(spec.RunSeconds)

	// Children and temp dirs go when the run ends, however it ends.
	defer cfg.procs.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cfg.procs.cleanup()
		os.Exit(130)
	}()

	for _, d := range []string{cfg.binDir, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 1, err
		}
	}
	if cfg.tmpDir, err = cfg.procs.tempDir(filepath.Join(build, "tmp"), "run-"); err != nil {
		return 1, err
	}
	built, err := buildDaemons(dir, cfg.binDir)
	if err != nil {
		return 1, err
	}
	// Pinned only now: the build above may use every core. A machine that
	// refuses is measured unpinned, and the run says so.
	if cfg.procs.place, err = placeSelf(); err != nil {
		fmt.Printf("# non-comparable: cores not assigned (%v); placement is the kernel's\n", err)
		cfg.procs.place = placement{}
	}
	fmt.Printf("# built qosd and qosproxy in %.2f s (not part of setup_s); seed %d, %g s per run, %d connections, nproc %d, %v\n",
		built.Seconds(), cfg.seed, cfg.seconds, cfg.conns, runtime.NumCPU(), cfg.procs.place)
	if !sameLength {
		fmt.Printf("# non-comparable: BENCHMARK.json measures for %d s per run\n", spec.RunSeconds)
	}

	if *check {
		return runCheck(cfg, spec, todo)
	}
	code := 0
	for _, w := range todo {
		var r *result
		var spans []span
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
			r, spans, err = runTraced(cfg, w)
		} else {
			r, err = runMeasured(cfg, w)
		}
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		path, err := writeRecord(cfg, r, spans, sameLength)
		if err != nil {
			return 1, err
		}
		fmt.Printf("# wrote %s\n", path)
		r.print(defs)
		if !r.Correct {
			code = 1
		}
	}
	return code, nil
}
