// Binary: drive the framed binary wire protocol end to end — pipelined
// submissions, out-of-order completion by request ID, and (with -compare)
// a head-to-head throughput measurement against the text line protocol on
// the same server.
//
// The demo starts an in-process server accepting both protocols, then:
//
//  1. Pipelines a burst of reads over one binary connection with
//     SubmitAsync and prints the completions in arrival order, tagging
//     each with its request ID — admission outcomes come back as the
//     engine finishes them, not in submission order.
//  2. Exercises the control verbs (MAP, STATS, HEALTH) over the same
//     multiplexed connection while data requests are still in flight.
//  3. With -compare, measures ops/s for N pipelined submissions over the
//     text protocol and the binary protocol and prints the ratio — the
//     framing, not the admission engine, is the variable.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"time"

	"flashqos/internal/core"
	"flashqos/internal/health"
	"flashqos/internal/qosnet"
	"flashqos/internal/shard"
	"flashqos/internal/wire"
)

func main() {
	burst := flag.Int("burst", 12, "pipelined reads for the out-of-order demo")
	compare := flag.Bool("compare", false, "measure text vs binary protocol throughput")
	compareOps := flag.Int("compare-ops", 30000, "submissions per protocol for -compare")
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

	if !*compare {
		return
	}

	// 3. Same server, same pipeline depth, two framings.
	fmt.Printf("== text vs binary, %d pipelined submissions each ==\n", *compareOps)
	textOps := textThroughput(addr.String(), *compareOps)
	binOps := binaryThroughput(addr.String(), *compareOps)
	fmt.Printf("  text   %10.0f ops/s\n", textOps)
	fmt.Printf("  binary %10.0f ops/s  (%.2fx)\n", binOps, binOps/textOps)
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

// textThroughput pipelines n READ lines over one text connection and
// returns ops/s.
func textThroughput(addr string, n int) float64 {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	const window = 256
	w := bufio.NewWriterSize(conn, 32768)
	r := bufio.NewReaderSize(conn, 32768)
	start := time.Now()
	inFlight := 0
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "READ %d\n", i)
		inFlight++
		if inFlight == window {
			w.Flush()
			for ; inFlight > 0; inFlight-- {
				line, err := r.ReadString('\n')
				if err != nil {
					log.Fatal(err)
				}
				if strings.HasPrefix(line, "ERR") {
					log.Fatalf("text protocol: %s", line)
				}
			}
		}
	}
	w.Flush()
	for ; inFlight > 0; inFlight-- {
		if _, err := r.ReadString('\n'); err != nil {
			log.Fatal(err)
		}
	}
	return float64(n) / time.Since(start).Seconds()
}

// binaryThroughput pipelines n OpSubmit frames over one binary connection
// and returns ops/s.
func binaryThroughput(addr string, n int) float64 {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	const window = 256
	w := bufio.NewWriterSize(conn, 32768)
	rd := wire.NewReader(bufio.NewReaderSize(conn, 32768), 0)
	var frame [wire.HeaderSize + 8]byte
	start := time.Now()
	inFlight := 0
	for i := 0; i < n; i++ {
		payload := wire.AppendBlock(frame[wire.HeaderSize:wire.HeaderSize], int64(i))
		wire.PutHeader(frame[:], wire.Header{
			Opcode: wire.OpSubmit, ID: uint64(i), Len: uint32(len(payload)),
		})
		w.Write(frame[:])
		inFlight++
		if inFlight == window {
			w.Flush()
			for ; inFlight > 0; inFlight-- {
				if _, _, err := rd.Next(); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	w.Flush()
	for ; inFlight > 0; inFlight-- {
		if _, _, err := rd.Next(); err != nil {
			log.Fatal(err)
		}
	}
	return float64(n) / time.Since(start).Seconds()
}
