package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is BENCHMARK.json: the contract the driver checks this
// benchmark against, and where the regression bounds live.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds must be at least 1", path)
	}
	return &s, nil
}

// worse is how much worse b is than a, as a share of a, in the metric's
// own direction; negative means b is better.
func worse(m specMetric, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCheck measures every workload twice on the same build, A then B, and
// fails unless each end-to-end metric of B is within its bound of A. The
// differences are printed so that bounds can be tightened by data.
func runCheck(cfg *config, spec *benchSpec, todo []workload) (int, error) {
	code := 0
	for _, w := range todo {
		var sets [2]*result
		for i := range sets {
			r, err := runMeasured(cfg, w)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			if !r.Correct {
				r.print(endToEnd)
				return 1, nil
			}
			sets[i] = r
		}
		fmt.Printf("\n== check %s ==\n%-20s %14s %14s %9s %7s\n", w.name, "metric", "A", "B", "B worse", "bound")
		for _, m := range spec.EndToEnd {
			a, b := sets[0].Metrics[m.Name].Value, sets[1].Metrics[m.Name].Value
			d := worse(m, a, b)
			verdict := ""
			if d > m.Bound {
				verdict = "  OUTSIDE"
				code = 1
			}
			fmt.Printf("%-20s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", m.Name, a, b, 100*d, 100*m.Bound, verdict)
		}
	}
	return code, nil
}
