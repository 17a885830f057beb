// Binary: drive the framed binary wire protocol end to end — pipelined
// submissions and out-of-order completion by request ID. The text and
// binary throughput comparison lives in qosnet's BenchmarkServerThroughput
// and BenchmarkBinaryThroughput.
//
// The demo starts an in-process server accepting both protocols, then:
//
//  1. Pipelines a burst of reads over one binary connection with
//     SubmitAsync and prints the completions in arrival order, tagging
//     each with its request ID — admission outcomes come back as the
//     engine finishes them, not in submission order.
//  2. Exercises the control verbs (MAP, STATS, HEALTH) over the same
//     multiplexed connection while data requests are still in flight.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"sync"

	"flashqos/internal/core"
	"flashqos/internal/health"
	"flashqos/internal/qosnet"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

func main() {
	burst := flag.Int("burst", 12, "pipelined reads for the out-of-order demo")
	flag.Parse()

	arr, err := shard.New(1, core.Config{N: 9, C: 3, M: 1})
	if err != nil {
		log.Fatal(err)
	}
	if err := arr.NewHealthMonitors(200, health.Config{}); err != nil {
		log.Fatal(err)
	}
	srv := qosnet.NewServerSharded(arr, qosnet.Options{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		log.Fatal(err)
	}
	bc := &burstConn{Conn: conn}
	c := qosnet.NewBinaryClient(bc)
	defer c.Close()

	// 1. Pipelined burst: enqueue every read before reading any result.
	// The server stamps one arrival time per socket fill, so the burst is
	// gathered into one write: the admission outcome (S reads served at
	// once, the rest delayed) is then the same on every run, however the
	// client's flusher or a busy machine would have split it.
	fmt.Printf("== %d pipelined reads over one binary connection ==\n", *burst)
	bc.gather(*burst * (wire.HeaderSize + 8))
	chans := make([]<-chan qosnet.SubmitResult, *burst)
	for i := range chans {
		chans[i] = c.SubmitAsync(int64(i * 7))
	}
	for i, ch := range chans {
		r := <-ch
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		fmt.Printf("  block %3d -> id=%2d device=%d delay=%.3fms resp=%.3fms\n",
			i*7, r.ID, r.Device, r.DelayMS, r.RespMS)
	}

	// 2. Control verbs multiplex over the same connection.
	fmt.Println("== control verbs on the same connection ==")
	db, devs, err := c.Map(42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  MAP 42    -> design block %d on devices %v\n", db, devs)
	reqs, delayed, rejected, _, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  STATS     -> %d requests, %d delayed, %d rejected\n", reqs, delayed, rejected)
	h, err := c.Health()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  HEALTH    -> %d/%d devices alive, S'=%d\n", h.Alive, h.Devices, h.EffectiveS)
}

// burstConn gathers the next want written bytes and sends them in one
// write; other writes pass straight through.
type burstConn struct {
	net.Conn
	mu   sync.Mutex
	want int
	buf  []byte
}

func (c *burstConn) gather(n int) {
	c.mu.Lock()
	c.want = n
	c.mu.Unlock()
}

func (c *burstConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.want == 0 {
		return c.Conn.Write(p)
	}
	c.buf = append(c.buf, p...)
	if len(c.buf) < c.want {
		return len(p), nil
	}
	c.want = 0
	_, err := c.Conn.Write(c.buf)
	c.buf = nil
	return len(p), err
}
