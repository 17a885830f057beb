package qosnet

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"testing"

	"flashqos/internal/wire"
)

// brokenConn fails every write while err is set and counts the bytes it
// accepts otherwise.
type brokenConn struct {
	mu  sync.Mutex
	err error
	n   int
}

func (c *brokenConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	c.n += len(p)
	return len(p), nil
}

// TestFrameWriterStickyError pins the contract the proxy's handler loop and
// the client's enqueue path rely on: once a flush fails, every later write
// returns that error and puts nothing on the connection, even after the
// connection would accept bytes again.
func TestFrameWriterStickyError(t *testing.T) {
	broken := errors.New("broken pipe")
	conn := &brokenConn{err: broken}
	done := make(chan struct{})
	defer close(done)
	fw := NewFrameWriter(conn, done)

	h := wire.Header{Opcode: wire.OpSubmit, ID: 1}
	if err := fw.WriteFrame(h, wire.AppendBlock(nil, 7)); err != nil {
		t.Fatalf("buffered write failed before any flush: %v", err)
	}
	if err := fw.Flush(); !errors.Is(err, broken) {
		t.Fatalf("Flush = %v, want %v", err, broken)
	}
	conn.mu.Lock()
	conn.err = nil
	conn.mu.Unlock()
	for name, write := range map[string]func() error{
		"WriteFrame":   func() error { return fw.WriteFrame(h, nil) },
		"WriteOutcome": func() error { return fw.WriteOutcome(h, wire.Outcome{}) },
		"WriteError":   func() error { return fw.WriteError(h, "x") },
		"Flush":        fw.Flush,
	} {
		if err := write(); !errors.Is(err, broken) {
			t.Errorf("%s after a failed flush = %v, want the sticky %v", name, err, broken)
		}
	}
	if err := fw.Err(); !errors.Is(err, broken) {
		t.Errorf("Err = %v, want %v", err, broken)
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.n != 0 {
		t.Errorf("%d bytes reached the connection after the failure, want 0", conn.n)
	}
}

// TestFrameWriterConcurrentWriters writes frames from several goroutines
// at once while the flusher drains them: every frame must arrive whole,
// and each writer's frames in the order it wrote them.
func TestFrameWriterConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 200
	client, server := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	defer close(done)
	fw := NewFrameWriter(server, done)

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h := wire.Header{Opcode: wire.OpSubmit, ID: uint64(g*perWriter + i)}
				if err := fw.WriteFrame(h, wire.AppendBlock(nil, int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		fw.Flush()
	}()

	rd := wire.NewReader(bufio.NewReader(client), wire.DefaultMaxPayload)
	next := make([]int, writers)
	for n := 0; n < writers*perWriter; n++ {
		h, payload, err := rd.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", n, err)
		}
		g, i := int(h.ID)/perWriter, int(h.ID)%perWriter
		if i != next[g] {
			t.Fatalf("writer %d: frame %d arrived, want %d", g, i, next[g])
		}
		if block, err := wire.ParseBlock(payload); err != nil || block != int64(i) {
			t.Fatalf("writer %d frame %d: payload block %d, %v", g, i, block, err)
		}
		next[g]++
	}
}
