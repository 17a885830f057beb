package qosnet

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"flashqos/internal/admission"
	"flashqos/internal/core"
	"flashqos/internal/design"
	"flashqos/internal/health"
	"flashqos/internal/sampling"
	"flashqos/internal/wire"
)

// validResponseLine reports whether a server output line is one the
// protocol documents. METRICS bodies contribute '#'-comments,
// flashqos_-prefixed samples, and the blank terminator (skipped by the
// caller).
func validResponseLine(line string) bool {
	for _, p := range []string{"OK ", "REJECTED", "MAP ", "STATS ", "ERR ", "# ", "flashqos_", "HEALTH ", "DEV ", "TENANT "} {
		if strings.HasPrefix(line, p) {
			return true
		}
	}
	return false
}

// FuzzHandle feeds arbitrary bytes through a net.Pipe-backed connection
// straight into the request handler: whatever the input — garbage
// commands, huge tokens, empty fields, binary noise — the server must not
// panic, must answer every complete line with a documented response, and
// must terminate once QUIT arrives.
func FuzzHandle(f *testing.F) {
	seeds := []string{
		"READ 42\n",
		"WRITE 1\nSTATS\n",
		"read 7\n", // lower-case commands are valid
		"READ\n",
		"READ abc\n",
		"READ 1 2 3\n",
		"READ 999999999999999999999999\n",
		"READ -5\nMAP -5\n",
		"MAP 7\nMETRICS\n",
		"BOGUS 1\n",
		"\n\n\n",
		"   \t  \n",
		"QUIT\nREAD 1\n",
		"HEALTH\n",
		"FAIL 0\nHEALTH\nRECOVER 0\n",
		"FAIL 0\nFAIL 1\nFAIL 2\n", // third must hit the MaxUnavailable guard
		"FAIL abc\nRECOVER -1\nFAIL 99\n",
		"RECOVER 3\nMETRICS\n", // recovering a healthy device errors
		"FAIL\nRECOVER\n",
		strings.Repeat("A", 9000) + "\n",
		"READ " + strings.Repeat("9", 2000) + "\n",
		"\x00\xff\xfe garbage \x01\n",
		"READ 5", // no trailing newline
		"TENANT SET alpha 3 0 2\nREAD 5 alpha\nTENANT GET alpha\nTENANT DEL alpha\n",
		"READ 5 ghost\nWRITE 5 ghost\n",
		"TENANT\nTENANT SET\nTENANT SET a x y z\nTENANT GET ghost\nTENANT DEL ghost\nTENANT BOGUS a\n",
		"TENANT SET big 99 0 1\nTENANT SET a 2 -1 0\n",
		// Translator edges: a tenant name on a server with no policy, extra
		// arguments, CRLF-terminated verbs.
		"write 3 alpha\n",
		"TENANT SET a 1 0 1 extra\n",
		"HEALTH x\n",
		"READ 1\r\nMAP 2\r\nSTATS\r\nFAIL 0\r\nRECOVER 0\r\nTENANT GET a\r\n",
		"TENANT SET " + strings.Repeat("n", 300) + " 1 0 1\nTENANT DEL x y\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := core.New(core.Config{Design: design.Paper931()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.NewHealthMonitor(1000, health.Config{}); err != nil {
			t.Fatal(err)
		}
		// ProtoText keeps the response stream line-oriented even when the
		// fuzzer discovers inputs starting with the binary magic byte.
		srv := newTestServer(t, sys, Options{ReadTimeout: 2 * time.Second, MaxLineBytes: 512, Proto: ProtoText})
		client, server := net.Pipe()
		defer client.Close()

		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(server)
		}()
		respDone := make(chan struct{})
		go func() {
			defer close(respDone)
			r := bufio.NewReader(client)
			for {
				line, err := r.ReadString('\n')
				if err != nil {
					return
				}
				line = strings.TrimRight(line, "\r\n")
				if line == "" {
					continue // METRICS terminator
				}
				if !validResponseLine(line) {
					t.Errorf("undocumented response line %q", line)
				}
			}
		}()

		client.SetWriteDeadline(time.Now().Add(3 * time.Second))
		client.Write(data) // error tolerated: handler may QUIT mid-payload
		client.Write([]byte("\nQUIT\n"))

		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("handler did not terminate")
		}
		client.Close()
		<-respDone
	})
}

// statFuzzTable is the P_k table shared by every FuzzHandleStat execution.
// The Monte-Carlo estimate is deterministic (fixed seed/trials/workers) and
// costs real CPU, so it runs once at process start instead of per input.
var statFuzzTable = func() *sampling.Table {
	base, err := core.New(core.Config{Design: design.Paper931()})
	if err != nil {
		panic(err)
	}
	tab, err := sampling.Estimate(base.Allocator(), sampling.Options{MaxK: 25, Trials: 500, Seed: 3})
	if err != nil {
		panic(err)
	}
	return tab
}()

// FuzzHandleStat is FuzzHandle against a statistical (ε > 0) server: the
// same no-panic/documented-response contract, but every READ/WRITE now runs
// the lock-free snapshot admission path, window merges fold into the
// estimator mid-connection, and METRICS renders the live Q gauges. The
// seeds aim at that machinery — bursts that overflow S into over-admission,
// METRICS interleaved with load, admin verbs flipping S' under a
// statistical controller.
func FuzzHandleStat(f *testing.F) {
	seeds := []string{
		"READ 42\nMETRICS\n",
		strings.Repeat("READ 7\n", 12) + "METRICS\n", // past S: over-admission path
		"WRITE 1\nWRITE 2\nWRITE 3\nMETRICS\n",
		"READ 1\nSTATS\nREAD 2\nMETRICS\nSTATS\n",
		"FAIL 0\nREAD 5\nMETRICS\nRECOVER 0\n", // degraded S' under ε > 0
		"READ -5\nREAD abc\nMETRICS\n",
		"METRICS\nMETRICS\nMETRICS\n",
		"BOGUS\n\x00\xff METRICS\n",
		"READ " + strings.Repeat("9", 400) + "\nMETRICS\n",
		"QUIT\nMETRICS\n",
		"READ 5 alpha\r\nwrite 3 alpha\nHEALTH x\n", // no tenant policy installed
		"TENANT SET a 1 0 1 extra\nREAD 7\r\nMETRICS\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := core.New(core.Config{Design: design.Paper931(), Epsilon: 0.05, Table: statFuzzTable})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.NewHealthMonitor(1000, health.Config{}); err != nil {
			t.Fatal(err)
		}
		srv := newTestServer(t, sys, Options{ReadTimeout: 2 * time.Second, MaxLineBytes: 512, Proto: ProtoText})
		client, server := net.Pipe()
		defer client.Close()

		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(server)
		}()
		respDone := make(chan struct{})
		go func() {
			defer close(respDone)
			r := bufio.NewReader(client)
			for {
				line, err := r.ReadString('\n')
				if err != nil {
					return
				}
				line = strings.TrimRight(line, "\r\n")
				if line == "" {
					continue // METRICS terminator
				}
				if !validResponseLine(line) {
					t.Errorf("undocumented response line %q", line)
				}
			}
		}()

		client.SetWriteDeadline(time.Now().Add(3 * time.Second))
		client.Write(data)
		client.Write([]byte("\nQUIT\n"))

		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("handler did not terminate")
		}
		client.Close()
		<-respDone
	})
}

// FuzzHandleBinary feeds arbitrary byte streams into the framed-protocol
// handler: malformed headers, truncated payloads, oversized lengths, reused
// request IDs, and valid frames with garbage payloads. The server must not
// panic, must echo the request ID on every well-formed response frame, and
// must terminate once the stream ends (framing errors close the
// connection; a trailing OpQuit ends clean runs).
func FuzzHandleBinary(f *testing.F) {
	frame := func(prev []byte, op uint8, id uint64, payload []byte) []byte {
		return wire.AppendFrame(prev, wire.Header{Opcode: op, ID: id}, payload)
	}
	// Well-formed exchanges across the verb set.
	f.Add(frame(nil, wire.OpSubmit, 1, wire.AppendBlock(nil, 42)))
	f.Add(frame(frame(nil, wire.OpWrite, 2, wire.AppendBlock(nil, 7)), wire.OpStats, 3, nil))
	f.Add(frame(nil, wire.OpBatch, 4, wire.AppendBatchReq(nil, []int64{1, 2, 3})))
	f.Add(frame(nil, wire.OpMap, 5, wire.AppendBlock(nil, -9)))
	f.Add(frame(nil, wire.OpMetrics, 6, nil))
	f.Add(frame(frame(nil, wire.OpFail, 7, wire.AppendDevice(nil, 0)), wire.OpHealth, 8, nil))
	f.Add(frame(nil, wire.OpRecover, 9, wire.AppendDevice(nil, 99)))
	f.Add(frame(nil, wire.OpShardStats, 10, nil))
	f.Add(frame(nil, 0xEE, 11, nil)) // unknown opcode
	// ID reuse back to back.
	f.Add(frame(frame(nil, wire.OpSubmit, 12, wire.AppendBlock(nil, 1)), wire.OpSubmit, 12, wire.AppendBlock(nil, 2)))
	// Garbage payloads on every opcode that parses one.
	f.Add(frame(nil, wire.OpSubmit, 13, []byte{1, 2, 3}))
	f.Add(frame(nil, wire.OpBatch, 14, wire.AppendUint32(nil, 1<<30)))
	f.Add(frame(nil, wire.OpFail, 15, []byte("x")))
	// Framing violations: bad magic, bad version, truncated, oversized.
	f.Add([]byte{wire.Magic, wire.Version + 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(wire.AppendHeader(nil, wire.Header{Opcode: wire.OpSubmit, ID: 16, Len: 1 << 30}))
	f.Add(frame(nil, wire.OpSubmit, 17, wire.AppendBlock(nil, 5))[:18])
	f.Add([]byte{wire.Magic})

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := core.New(core.Config{Design: design.Paper931()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.NewHealthMonitor(1000, health.Config{}); err != nil {
			t.Fatal(err)
		}
		srv := newTestServer(t, sys, Options{
			ReadTimeout: 2 * time.Second,
			Proto:       ProtoBinary,
		})
		client, server := net.Pipe()
		defer client.Close()

		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(server)
		}()
		respDone := make(chan struct{})
		go func() {
			defer close(respDone)
			rd := wire.NewReader(bufio.NewReader(client), 1<<20)
			for {
				h, payload, err := rd.Next()
				if err != nil {
					return
				}
				if int(h.Len) != len(payload) {
					t.Errorf("response frame Len %d != payload %d", h.Len, len(payload))
				}
			}
		}()

		client.SetWriteDeadline(time.Now().Add(3 * time.Second))
		client.Write(data) // error tolerated: handler may close mid-payload
		client.Write(wire.AppendFrame(nil, wire.Header{Opcode: wire.OpQuit, ID: 1 << 62}, nil))

		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("binary handler did not terminate")
		}
		client.Close()
		<-respDone
	})
}

// FuzzHandleTenant is FuzzHandleBinary against a server with a live tenant
// policy: tenant-tagged submissions (valid, inactive, and malformed
// indices), the tenant admin opcodes, and plain frames interleave on one
// connection. The handler must not panic, every response frame must be
// well-formed, and — because the seeds include TENANT SET/DEL — the
// registry gets reconfigured mid-stream under whatever ordering the fuzzer
// finds.
func FuzzHandleTenant(f *testing.F) {
	frame := func(prev []byte, op, flags uint8, id uint64, payload []byte) []byte {
		return wire.AppendFrame(prev, wire.Header{Opcode: op, Flags: flags, ID: id}, payload)
	}
	// Tenant-tagged submissions: index 1 is configured, 2 is inactive.
	f.Add(frame(nil, wire.OpSubmit, wire.FlagTenant, 1, wire.AppendTenantBlock(nil, 42, 1)))
	f.Add(frame(nil, wire.OpWrite, wire.FlagTenant, 2, wire.AppendTenantBlock(nil, 7, 1)))
	f.Add(frame(nil, wire.OpSubmit, wire.FlagTenant, 3, wire.AppendTenantBlock(nil, 42, 2)))
	// Malformed tenant payloads: zero index, truncated varint, trailing.
	f.Add(frame(nil, wire.OpSubmit, wire.FlagTenant, 4, append(wire.AppendBlock(nil, 1), 0)))
	f.Add(frame(nil, wire.OpSubmit, wire.FlagTenant, 5, append(wire.AppendBlock(nil, 1), 0x80)))
	f.Add(frame(nil, wire.OpSubmit, wire.FlagTenant, 6, append(wire.AppendTenantBlock(nil, 1, 1), 9)))
	// FlagTenant on a plain 8-byte payload, and a tagged payload without it.
	f.Add(frame(nil, wire.OpSubmit, wire.FlagTenant, 7, wire.AppendBlock(nil, 1)))
	f.Add(frame(nil, wire.OpSubmit, 0, 8, wire.AppendTenantBlock(nil, 1, 1)))
	// Admin opcodes, including mid-stream reconfiguration.
	f.Add(frame(nil, wire.OpTenantHello, 0, 9, wire.AppendTenantHelloReq(nil, []string{"alpha", "ghost"})))
	f.Add(frame(nil, wire.OpTenant, 0, 10, wire.AppendTenantReq(nil, wire.TenantCmdSet,
		wire.TenantSpec{Name: "beta", Reserve: 2, Limit: 6, Weight: 1})))
	f.Add(frame(
		frame(nil, wire.OpTenant, 0, 11, wire.AppendTenantReq(nil, wire.TenantCmdDel, wire.TenantSpec{Name: "alpha"})),
		wire.OpSubmit, wire.FlagTenant, 12, wire.AppendTenantBlock(nil, 3, 1)))
	f.Add(frame(nil, wire.OpTenant, 0, 13, wire.AppendTenantReq(nil, wire.TenantCmdGet, wire.TenantSpec{Name: "alpha"})))
	f.Add(frame(nil, wire.OpTenant, 0, 14, []byte{9, 1, 'x'}))
	f.Add(frame(nil, wire.OpTenantStats, 0, 15, nil))
	f.Add(frame(nil, wire.OpTenant, 0, 16, wire.AppendTenantReq(nil, wire.TenantCmdSet,
		wire.TenantSpec{Name: "huge", Reserve: 99, Limit: 0, Weight: 1}))) // reserve beyond S

	f.Fuzz(func(t *testing.T, data []byte) {
		sys, err := core.New(core.Config{Design: design.Paper931()})
		if err != nil {
			t.Fatal(err)
		}
		srv := newTestServer(t, sys, Options{
			ReadTimeout: 2 * time.Second,
			Proto:       ProtoBinary,
		})
		if _, err := srv.arr.TenantSet(admission.TenantSpec{Name: "alpha", Reserve: 3, Limit: 8, Weight: 1}); err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		defer client.Close()

		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handle(server)
		}()
		respDone := make(chan struct{})
		go func() {
			defer close(respDone)
			rd := wire.NewReader(bufio.NewReader(client), 1<<20)
			for {
				h, payload, err := rd.Next()
				if err != nil {
					return
				}
				if int(h.Len) != len(payload) {
					t.Errorf("response frame Len %d != payload %d", h.Len, len(payload))
				}
			}
		}()

		client.SetWriteDeadline(time.Now().Add(3 * time.Second))
		client.Write(data) // error tolerated: handler may close mid-payload
		client.Write(wire.AppendFrame(nil, wire.Header{Opcode: wire.OpQuit, ID: 1 << 62}, nil))

		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("tenant binary handler did not terminate")
		}
		client.Close()
		<-respDone
	})
}
