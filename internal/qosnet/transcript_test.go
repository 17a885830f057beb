package qosnet

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flashqos/internal/admission"
)

var updateTranscript = flag.Bool("update", false, "rewrite testdata/text_transcript.txt from current output")

// textConn is a raw line-protocol connection for tests: send one request
// and read back its reply bytes exactly as the server wrote them.
type textConn struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

func dialText(t *testing.T, addr string) *textConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &textConn{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// send writes req verbatim and returns one reply: a single line, or — for
// METRICS and HEALTH — every line through the blank terminator. A reply of
// "" means the server closed the connection (QUIT).
func (c *textConn) send(req string) string {
	c.t.Helper()
	if _, err := io.WriteString(c.conn, req); err != nil {
		c.t.Fatalf("send %q: %v", req, err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var reply strings.Builder
	for {
		line, err := c.r.ReadString('\n')
		if err == io.EOF && line == "" && reply.Len() == 0 {
			return ""
		}
		if err != nil {
			c.t.Fatalf("reply to %q: %v", req, err)
		}
		reply.WriteString(line)
		first := reply.String()
		if line == "\n" || !(strings.HasPrefix(first, "# ") || strings.HasPrefix(first, "HEALTH ")) {
			return first
		}
	}
}

// do sends one request line and returns its single-line reply without the
// newline.
func (c *textConn) do(line string) string {
	c.t.Helper()
	return strings.TrimSuffix(c.send(line+"\n"), "\n")
}

// textReads reads blocks first..first+n-1 one round trip at a time on a
// fresh text connection, requiring an admitted "OK" reply for each. It
// reports failures as an error, so it is safe off the test goroutine.
func textReads(addr string, first int64, n int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	for b := first; b < first+int64(n); b++ {
		fmt.Fprintf(conn, "READ %d\n", b)
		line, err := r.ReadString('\n')
		if err != nil {
			return fmt.Errorf("READ %d: %w", b, err)
		}
		if !strings.HasPrefix(line, "OK ") {
			return fmt.Errorf("READ %d answered %q", b, line)
		}
	}
	return nil
}

// transcriptSessions scripts one text session per server shape. Every
// admitted READ/WRITE in a session targets one of the blocks 0, 10, 11,
// whose replica sets {0,1,2} {3,4,5} {6,7,8} are disjoint, at most once,
// so no reply byte depends on when a request arrives.
var transcriptSessions = []struct {
	name  string
	start func(t *testing.T) string
	lines []string
}{
	{
		name: "plain",
		start: func(t *testing.T) string {
			_, addr := startServerOpts(t, Options{MaxLineBytes: 64})
			return addr
		},
		lines: []string{
			"READ 0\n",
			"read 10\n",
			"WRITE 11\r\n",
			"READ 5 alpha\n",
			"write 3 alpha\n",
			"READ\n",
			"read\n",
			"READ 1 2 3\n",
			"READ abc\n",
			"READ 999999999999999999999999\n",
			"WRITE x\n",
			"MAP -5\n",
			"MAP 0\n",
			"map 7\r\n",
			"MAP\n",
			"MAP x\n",
			"MAP 1 2\n",
			"STATS\n",
			"stats extra\n",
			"METRICS\n",
			"FAIL 0\n",
			"FAIL x\n",
			"RECOVER 0\n",
			"FAIL\n",
			"HEALTH\n",
			"TENANT GET alpha\n",
			"   \t \nSTATS\n",
			"READ " + strings.Repeat("9", 60) + "\n", // 65 bytes: one over the limit
			"BOGUS\n",
			"bogus 1\n",
			"QUIT\n",
		},
	},
	{
		name: "health",
		start: func(t *testing.T) string {
			_, addr := startHealthServer(t, 0) // no rebuilder: RECOVER promotes at once
			return addr
		},
		lines: []string{
			"HEALTH\n",
			"READ 0\n",
			"WRITE 10\n",
			"HEALTH x\n",
			"FAIL 0\n",
			"FAIL 0\n",
			"FAIL 1\n",
			"FAIL 2\n",
			"health\n",
			"METRICS\n",
			"RECOVER 0\n",
			"recover 1\r\n",
			"RECOVER 3\n",
			"FAIL x\n",
			"FAIL -1\n",
			"FAIL 9\n",
			"RECOVER 99999999999999999999\n",
			"FAIL\n",
			"RECOVER 1 2\n",
			"STATS\n",
			"QUIT\n",
		},
	},
	{
		name: "tenant",
		start: func(t *testing.T) string {
			srv, addr := startServer(t)
			if _, err := srv.arr.TenantSet(admission.TenantSpec{Name: "alpha", Reserve: 2, Weight: 1}); err != nil {
				t.Fatal(err)
			}
			return addr
		},
		lines: []string{
			"READ 0 alpha\n",
			"write 10 alpha\n",
			"READ 11 ghost\n",
			"READ 11\n",
			"TENANT GET alpha\n",
			"tenant get alpha\r\n",
			"METRICS\n",
			"TENANT SET beta 1 4 1.5\n",
			"TENANT SET beta 1 4 2\n",
			"TENANT GET beta\n",
			"TENANT SET big 99 0 1\n",
			"TENANT SET a 2 -1 0\n",
			"TENANT SET a x y z\n",
			"TENANT SET a 1 0 1 extra\n",
			"TENANT SET a\n",
			"TENANT SET\n",
			"TENANT\n",
			"TENANT GET\n",
			"TENANT GET a b\n",
			"TENANT DEL a b\n",
			"TENANT BOGUS a\n",
			"TENANT DEL beta\n",
			"TENANT DEL beta\n",
			"TENANT GET beta\n",
			"READ 1 beta\n",
			"TENANT SET gamma 0 0 1\n",
			"STATS\n",
			"QUIT\n",
		},
	},
}

// TestTextTranscript replays one scripted line session per server shape and
// demands the exact reply bytes recorded in testdata/text_transcript.txt:
// every verb, every error string, lower-case verbs and CRLF lines. Run with
// -update to regenerate.
func TestTextTranscript(t *testing.T) {
	var got strings.Builder
	for _, s := range transcriptSessions {
		fmt.Fprintf(&got, "# session %s\n", s.name)
		c := dialText(t, s.start(t))
		for _, line := range s.lines {
			fmt.Fprintf(&got, "> %q\n", line)
			reply := c.send(line)
			if reply == "" {
				got.WriteString("< EOF\n")
				continue
			}
			for _, l := range strings.SplitAfter(reply, "\n") {
				if l != "" {
					fmt.Fprintf(&got, "< %q\n", l)
				}
			}
		}
	}
	path := filepath.Join("testdata", "text_transcript.txt")
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript differs at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
