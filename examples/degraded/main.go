// Degraded: what a flash array does when devices misbehave.
//
// It starts an in-process qosnet server with the device-health subsystem
// enabled and drives the live degraded-mode arc over the wire: FAIL a
// device, watch admission drop from S to S', see reads avoid the failed
// module, RECOVER it, and watch the rate-capped resilver bring the full
// guarantee back. The heterogeneity study (makespan-aware retrieval on an
// array with slowed modules) is `qosbench -run hetero`.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/health"
	"flashqos/internal/qosnet"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

func main() {
	victimFlag := flag.Int("victim", 0, "device to fail (0-8)")
	rebuildFlag := flag.Float64("rebuild-rate", 2000, "rebuild cap, bucket copies per second")
	flag.Parse()
	victim, rebuildRate := *victimFlag, *rebuildFlag

	// Boot a health-enabled server on a loopback port and play the
	// failure → degrade → rebuild → recover arc through the admin protocol.
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
