// Degraded: what a flash array does when devices misbehave.
//
// The default mode starts an in-process qosnet server with the device-
// health subsystem enabled and drives the live degraded-mode arc over the
// wire: FAIL a device, watch admission drop from S to S', see reads avoid
// the failed module, RECOVER it, and watch the rate-capped resilver bring
// the full guarantee back.
//
// -offline switches to the older heterogeneity study: makespan-aware
// retrieval on an array with slowed modules (wear, garbage collection,
// mixed device generations), comparing the access-count-optimal schedule
// against the generalized minimum-makespan one (ICPP'12 [15]).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/decluster"
	"flashqos/internal/design"
	"flashqos/internal/health"
	"flashqos/internal/qosnet"
	"flashqos/internal/retrieval"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

func main() {
	offline := flag.Bool("offline", false, "run the offline heterogeneity study instead of the live FAIL/RECOVER demo")
	slow := flag.Int("slow", 2, "offline: number of slowed modules (0-8)")
	factor := flag.Float64("factor", 2.0, "offline: slowdown factor")
	victim := flag.Int("victim", 0, "live: device to fail (0-8)")
	rebuildRate := flag.Float64("rebuild-rate", 2000, "live: rebuild cap, bucket copies per second")
	flag.Parse()

	if *offline {
		runOffline(*slow, *factor)
		return
	}
	runLive(*victim, *rebuildRate)
}

// runLive boots a health-enabled server on a loopback port and plays the
// failure → degrade → rebuild → recover arc through the admin protocol.
func runLive(victim int, rebuildRate float64) {
	if victim < 0 || victim > 8 {
		log.Fatal("victim must be in [0,8]")
	}
	sys, err := core.New(core.Config{Design: design.Paper931(), M: 1})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sys.NewHealthMonitor(rebuildRate, health.Config{}); err != nil {
		log.Fatal(err)
	}
	arr, err := shard.FromSystems(sys)
	if err != nil {
		log.Fatal(err)
	}
	srv := qosnet.NewServerSharded(arr, qosnet.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	fmt.Printf("server: (9,3,1) design, S=%d, health on, rebuild %g copies/s, %s\n\n", sys.S(), rebuildRate, addr)

	c, err := qosnet.DialBinary(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	readBurst := func(label string) {
		onVictim := 0
		for b := int64(0); b < 36; b++ {
			res, err := c.Read(b)
			if err != nil {
				log.Fatal(err)
			}
			if !res.Rejected && res.Device == victim {
				onVictim++
			}
		}
		fmt.Printf("%s: 36 reads, %d served by device %d\n", label, onVictim, victim)
	}
	showHealth := func() wire.Health {
		h, err := c.Health()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  HEALTH: alive=%d/%d S_eff=%d (S=%d) rebuild pending=%d done=%d, device %d %s\n",
			h.Alive, h.Devices, h.EffectiveS, h.FullS, h.RebuildPending, h.RebuildDone, victim, h.States[victim].State)
		return h
	}

	readBurst("healthy array")
	showHealth()

	state, s, err := c.Fail(victim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nFAIL %d → device %s, admission limit S' = %d\n", victim, state, s)
	readBurst("degraded array")
	showHealth()

	state, s, err = c.Recover(victim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRECOVER %d → device %s, S' stays %d until the resilver drains\n", victim, state, s)
	for {
		time.Sleep(20 * time.Millisecond)
		if h := showHealth(); h.EffectiveS == h.FullS {
			break
		}
	}
	readBurst("\nrecovered array")
}

// runOffline is the heterogeneity study: makespan-aware retrieval against
// slowed modules.
func runOffline(slow int, factor float64) {
	if slow < 0 || slow > 8 {
		log.Fatal("slow must be in [0,8]")
	}

	const service = 0.132507
	alloc, err := decluster.NewDesignTheoretic(design.Paper931())
	if err != nil {
		log.Fatal(err)
	}
	svc := make([]float64, 9)
	for d := range svc {
		svc[d] = service
		if d < slow {
			svc[d] *= factor
		}
	}
	fmt.Printf("array: 9 modules, %d slowed %.1fx (devices 0..%d)\n\n", slow, factor, slow-1)

	rng := rand.New(rand.NewSource(7))
	perm := rng.Perm(36)
	replicas := make([][]int, 14) // an S(2)-sized batch
	for i := range replicas {
		replicas[i] = alloc.Replicas(perm[i])
	}

	// Access-count-optimal schedule, evaluated at real device speeds.
	res := retrieval.Optimal(replicas, 9)
	load := make([]int, 9)
	for _, d := range res.Assignment {
		load[d]++
	}
	worst := 0.0
	for d, l := range load {
		if m := float64(l) * svc[d]; m > worst {
			worst = m
		}
	}
	fmt.Printf("access-count schedule: %d accesses, realized makespan %.4f ms\n", res.Accesses, worst)
	fmt.Printf("  per-device load: %v\n", load)

	// Heterogeneity-aware schedule.
	h := retrieval.MinResponseTime(replicas, svc)
	hload := make([]int, 9)
	for _, d := range h.Assignment {
		hload[d]++
	}
	fmt.Printf("\nmakespan-aware schedule: realized makespan %.4f ms\n", h.Makespan)
	fmt.Printf("  per-device load: %v (slow devices carry less)\n", hload)
	if worst > h.Makespan {
		fmt.Printf("\nimprovement: %.2fx faster batch completion\n", worst/h.Makespan)
	}
}
