// Command qosd serves a replication-based QoS flash array over TCP — the
// storage-cloud deployment the paper motivates. Clients submit block reads
// and receive admission outcomes and guaranteed response times. Programs
// speak the framed binary protocol (qosnet.DialBinary, or qosproxy in
// front); a human can type the line protocol, which the server translates
// into the same frames (see internal/qosnet). Requests from concurrent
// connections flow through the lock-free admission pipeline
// (core.System); see the qosnet package docs for the concurrency
// model and robustness controls.
//
// Usage:
//
//	qosd -addr :7331 -n 9 -c 3 -m 1 -max-conns 256 -read-timeout 5m -drain-timeout 5s
//	printf 'READ 42\nSTATS\nQUIT\n' | nc localhost 7331
//
// With -shards K the block space is hash-partitioned across K independent
// (n,c,1) arrays (K·n devices, K·S guaranteed admissions per interval);
// the protocol is unchanged and device ids become global (see
// internal/shard).
//
// A device-health monitor is attached by default: the FAIL/RECOVER/HEALTH
// admin verbs manage device availability, admission degrades to S' when
// devices are out of service, and a token-bucket rebuild scheduler
// re-replicates in the background. Tune with -suspect-after, -fail-after
// and -rebuild-rate, or disable with -no-health.
//
// Repeatable -tenant name:reserve:limit:weight flags install a boot-time
// multi-tenant policy: tagged submissions run the mClock-style gate in
// front of the S-bound (reserved window slots, per-window arrival limits,
// weighted surplus), and the TENANT SET/GET/DEL verbs reconfigure the
// policy live without pausing admission. Untagged traffic is never gated.
//
// With -backend pack -data-dir DIR the server stores real bytes: one
// append-only volume file per device under DIR (see internal/pack), the
// binary GET/PUT verbs serve payloads with QoS admission in front, media
// faults feed the health monitor, and the rebuild scheduler copies real
// payloads during reprotect/resilver. -backend flashsim (the default) and
// -backend mem are two names for the same timing-only daemon: admission
// prices every request at flashsim's per-block service times and no bytes
// are stored.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers the /debug/pprof handlers on -pprof
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"flashqos/internal/admission"
	"flashqos/internal/core"
	"flashqos/internal/health"
	"flashqos/internal/pack"
	"flashqos/internal/qosnet"
	"flashqos/internal/sampling"
	"flashqos/internal/shard"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7331", "listen address")
		n       = flag.Int("n", 9, "flash modules")
		c       = flag.Int("c", 3, "replicas per bucket")
		m       = flag.Int("m", 1, "access guarantee target M")
		shards  = flag.Int("shards", 1, "independent (n,c,1) arrays to hash-partition blocks across")
		epsilon = flag.Float64("epsilon", 0, "statistical QoS threshold (0 = deterministic)")
		table   = flag.String("table", "", "cached probability table (from qostable) for statistical QoS")

		proto        = flag.String("proto", "both", "accepted wire protocols: text, binary, or both (auto-detect per connection)")
		maxConns     = flag.Int("max-conns", 256, "max concurrent connections (0 = unlimited); excess get ERR server busy")
		readTimeout  = flag.Duration("read-timeout", 5*time.Minute, "per-line read deadline (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain before force-closing connections")
		maxLine      = flag.Int("max-line", qosnet.DefaultMaxLineBytes, "max request-line length in bytes")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")

		noHealth     = flag.Bool("no-health", false, "disable the device-health monitor (FAIL/RECOVER/HEALTH answer ERR)")
		suspectAfter = flag.Int("suspect-after", 3, "consecutive errors before a device turns Suspect")
		failAfter    = flag.Int("fail-after", 10, "consecutive errors before a Suspect device turns Failed")
		rebuildRate  = flag.Float64("rebuild-rate", 200, "background rebuild rate cap, bucket copies per second (0 = no rebuild; RECOVER promotes immediately)")

		backend       = flag.String("backend", "flashsim", "storage backend: flashsim or mem (the same timing-only daemon), or pack (real bytes; needs -data-dir)")
		dataDir       = flag.String("data-dir", "", "volume directory for -backend pack")
		packSync      = flag.Duration("pack-sync", pack.DefaultSyncInterval, "pack group-commit fsync interval")
		packSyncBytes = flag.Int("pack-sync-bytes", pack.DefaultSyncBytes, "pack unsynced-byte threshold that kicks an early fsync")
	)
	var tenants tenantFlags
	flag.Var(&tenants, "tenant",
		"boot-time tenant policy as name:reserve:limit:weight (repeatable; limit 0 = unlimited; same live policy as TENANT SET)")
	flag.Parse()

	cfg := core.Config{N: *n, C: *c, M: *m, Epsilon: *epsilon}
	switch *backend {
	case "flashsim", "mem":
		// Timing only; admission prices at flashsim's service times.
	case "pack":
		if *dataDir == "" {
			log.Fatal("qosd: -backend pack requires -data-dir")
		}
	default:
		log.Fatalf("qosd: bad -backend %q (want flashsim, mem, or pack)", *backend)
	}
	if *table != "" {
		f, err := os.Open(*table)
		if err != nil {
			log.Fatal(err)
		}
		tab, err := sampling.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Table = tab
	}
	arr, err := shard.New(*shards, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if len(tenants) > 0 {
		// Boot-time policy; tenant indices follow flag order (first
		// -tenant is index 1). TENANT SET/DEL reconfigure it live.
		if err := arr.SetTenants(tenants); err != nil {
			log.Fatalf("qosd: -tenant: %v", err)
		}
	}
	var store *pack.Store
	if *backend == "pack" {
		store, err = pack.Open(*dataDir, arr.Devices(), pack.Options{SyncInterval: *packSync, SyncBytes: *packSyncBytes})
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
	}
	if !*noHealth {
		hcfg := health.Config{
			SuspectAfter: *suspectAfter,
			FailAfter:    *failAfter,
		}
		if store != nil {
			// Rebuild passes move the real payloads, not just the schedule.
			err = arr.NewHealthMonitorsWithCopy(*rebuildRate, hcfg, qosnet.RebuildCopy(arr, store))
		} else {
			err = arr.NewHealthMonitors(*rebuildRate, hcfg)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	var protoMode qosnet.Proto
	switch *proto {
	case "both":
		protoMode = qosnet.ProtoBoth
	case "text":
		protoMode = qosnet.ProtoText
	case "binary":
		protoMode = qosnet.ProtoBinary
	default:
		log.Fatalf("qosd: bad -proto %q (want text, binary, or both)", *proto)
	}
	opts := qosnet.Options{
		MaxConns:     *maxConns,
		ReadTimeout:  *readTimeout,
		MaxLineBytes: *maxLine,
		Proto:        protoMode,
	}
	if store != nil {
		opts.Store = store
	}
	srv := qosnet.NewServerSharded(arr, opts)
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	if *pprofAddr != "" {
		go func() {
			log.Printf("qosd: pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
		fmt.Printf("qosd: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}
	healthMode := "off"
	if !*noHealth {
		healthMode = fmt.Sprintf("on (suspect-after=%d fail-after=%d rebuild-rate=%g/s)",
			*suspectAfter, *failAfter, *rebuildRate)
	}
	fmt.Printf("qosd: (%d,%d,1) design, M=%d, shards=%d, devices=%d, S=%d, epsilon=%g, backend %s, health %s, proto %s, listening on %s\n",
		*n, *c, *m, arr.Shards(), arr.Devices(), arr.S(), *epsilon, *backend, healthMode, *proto, bound)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	drained := make(chan error, 1)
	go func() {
		<-sig
		fmt.Println("qosd: shutting down")
		drained <- srv.Shutdown(*drainTimeout)
	}()
	if err := srv.Serve(); err != nil {
		log.Fatal(err)
	}
	if err := <-drained; err != nil {
		fmt.Printf("qosd: %v\n", err)
	}
	if store != nil {
		// Flush the group-commit tail before announcing a clean exit.
		if err := store.Close(); err != nil {
			fmt.Printf("qosd: store close: %v\n", err)
		}
	}
	fmt.Println("qosd: bye")
}

// tenantFlags collects repeatable -tenant name:reserve:limit:weight
// declarations into a boot-time policy.
type tenantFlags []admission.TenantSpec

func (t *tenantFlags) String() string {
	parts := make([]string, len(*t))
	for i, s := range *t {
		parts[i] = fmt.Sprintf("%s:%d:%d:%g", s.Name, s.Reserve, s.Limit, s.Weight)
	}
	return strings.Join(parts, ",")
}

func (t *tenantFlags) Set(v string) error {
	f := strings.Split(v, ":")
	if len(f) != 4 || f[0] == "" {
		return fmt.Errorf("want name:reserve:limit:weight, got %q", v)
	}
	reserve, err := strconv.Atoi(f[1])
	if err != nil {
		return fmt.Errorf("bad reserve %q: %v", f[1], err)
	}
	limit, err := strconv.Atoi(f[2])
	if err != nil {
		return fmt.Errorf("bad limit %q: %v", f[2], err)
	}
	weight, err := strconv.ParseFloat(f[3], 64)
	if err != nil {
		return fmt.Errorf("bad weight %q: %v", f[3], err)
	}
	*t = append(*t, admission.TenantSpec{Name: f[0], Reserve: reserve, Limit: limit, Weight: weight})
	return nil
}
