// Command vcprofd serves the measurement engine over HTTP: clients POST
// encode or experiment job specs, poll their status, and fetch results
// from a content-addressed disk store that survives restarts. Identical
// jobs — concurrent or repeated — are computed once.
//
// With -shards it is a gate instead: the same API with no engine of its
// own, routing over N vcprofd shards with replication factor -replicas
// (internal/cluster), plus /v1/cluster/{stats,shards,metrics}.
//
// Usage:
//
//	vcprofd -store /tmp/vcprof-store            # listen on :8791
//	vcprofd -addr 127.0.0.1:0 -j 8 -queue 256   # random port, bigger pool
//	vcprofd -trace                              # enable /debug/trace spans
//	vcprofd -addr :8790 -shards s1=http://h1:8791,s2=http://h2:8791 -replicas 2
//
// The daemon prints "listening on <host:port>" once the socket is
// bound (scripts parse this to discover a random port), serves until
// SIGINT/SIGTERM, then drains: new submissions get 503 while queued and
// in-flight jobs (or a gate's drives) finish under -drain, and the store
// index is flushed so the next start reuses the warm cache.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vcprof/internal/cluster"
	"vcprof/internal/obs"
	"vcprof/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vcprofd:", err)
		os.Exit(1)
	}
}

// engineFlags configure the local engine, which a gate does not have.
var engineFlags = map[string]bool{
	"store": true, "store-max": true, "j": true, "queue": true,
	"timeout": true, "trace": true, "sample": true, "name": true,
}

func run() error {
	var (
		addr       = flag.String("addr", ":8791", "listen address (host:port; port 0 picks a free one)")
		storeDir   = flag.String("store", "vcprofd-store", "result store directory")
		storeMax   = flag.Int64("store-max", 0, "store size budget in bytes (0 = 1 GiB)")
		workers    = flag.Int("j", 4, "jobs in flight at once, and the width of the shard pool they share")
		queueCap   = flag.Int("queue", 64, "queued-job bound before submissions get 429")
		timeout    = flag.Duration("timeout", 2*time.Minute, "default per-job execution budget")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		traceOn    = flag.Bool("trace", false, "record worker spans; export at /debug/trace")
		sample     = flag.Duration("sample", 250*time.Millisecond, "telemetry time-series sampling interval (0 disables /v1/telemetry/series)")
		name       = flag.String("name", "", "shard name echoed by GET /v1/registry (for a gate's shards; default \"vcprofd\")")
		shardsSpec = flag.String("shards", "", "serve as a gate over these vcprofd shards: comma-separated [name=]URL list")
		replicas   = flag.Int("replicas", 1, "with -shards: replication factor R, owners per job id")
	)
	flag.Parse()
	gate := *shardsSpec != ""
	var bad error
	flag.Visit(func(f *flag.Flag) {
		switch {
		case bad != nil:
		case gate && engineFlags[f.Name]:
			bad = fmt.Errorf("-%s configures the local engine, which a gate (-shards) does not run", f.Name)
		case !gate && f.Name == "replicas":
			bad = errors.New("-replicas needs -shards")
		}
	})
	if bad != nil {
		return bad
	}
	if gate {
		shards, err := parseShards(*shardsSpec)
		if err != nil {
			return err
		}
		// As with the engine below, drives survive the start of a drain
		// and die only when the drain budget runs out. Config's zero value
		// disables the prober (tests step it by hand); a gate probes.
		rt, err := cluster.NewRouter(context.Background(), cluster.Config{
			Shards: shards, Replicas: *replicas, ProbeInterval: 250 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		rt.Start()
		for _, sh := range shards {
			fmt.Fprintf(os.Stderr, "shard %s: %s\n", sh.Name, sh.URL)
		}
		return service.RunDaemon("vcprofd", *addr, rt.Handler(), *drain, rt.Shutdown)
	}

	var sess *obs.Session
	if *traceOn {
		sess = obs.NewSession()
	}
	// The server's base context is NOT a signal context: jobs must
	// survive the start of a drain and only die when the drain budget
	// runs out (Shutdown cancels the base context itself).
	srv, err := service.NewServer(context.Background(), service.Config{
		StoreDir:       *storeDir,
		StoreMaxBytes:  *storeMax,
		Workers:        *workers,
		QueueCap:       *queueCap,
		DefaultTimeout: *timeout,
		DrainTimeout:   *drain,
		Obs:            sess,
		SampleInterval: *sample,
		ShardName:      *name,
	})
	if err != nil {
		return err
	}
	srv.Start()

	st := srv.Store().Stats()
	fmt.Fprintf(os.Stderr, "store %s: %d objects, %d bytes\n", *storeDir, st.Objects, st.Bytes)
	return service.RunDaemon("vcprofd", *addr, srv.Handler(), *drain, srv.Shutdown)
}

// parseShards turns -shards into the shard set: a comma-separated list
// of base URLs, each optionally prefixed "name=". Unnamed shards get s0,
// s1, ... in list order; a bare host:port gets http://.
func parseShards(spec string) ([]cluster.Shard, error) {
	var out []cluster.Shard
	for i, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sh := cluster.Shard{Name: "s" + strconv.Itoa(i)}
		if eq := strings.Index(part, "="); eq > 0 && !strings.Contains(part[:eq], "/") {
			sh.Name = part[:eq]
			part = part[eq+1:]
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		sh.URL = strings.TrimRight(part, "/")
		out = append(out, sh)
	}
	if len(out) == 0 {
		return nil, errors.New("-shards parsed to an empty set")
	}
	return out, nil
}
