// Command vcprofd serves the measurement engine over HTTP: clients POST
// encode or experiment job specs, poll their status, and fetch results
// from a content-addressed disk store that survives restarts. Identical
// jobs — concurrent or repeated — are computed once.
//
// Usage:
//
//	vcprofd -store /tmp/vcprof-store            # listen on :8791
//	vcprofd -addr 127.0.0.1:0 -j 8 -queue 256   # random port, bigger pool
//	vcprofd -trace                              # enable /debug/trace spans
//
// The daemon prints "listening on <host:port>" once the socket is
// bound (scripts parse this to discover a random port), serves until
// SIGINT/SIGTERM, then drains: new submissions get 503 while queued and
// in-flight jobs finish under -drain, and the store index is flushed so
// the next start reuses the warm cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"vcprof/internal/obs"
	"vcprof/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vcprofd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8791", "listen address (host:port; port 0 picks a free one)")
		storeDir = flag.String("store", "vcprofd-store", "result store directory")
		storeMax = flag.Int64("store-max", 0, "store size budget in bytes (0 = 1 GiB)")
		workers  = flag.Int("j", 4, "jobs in flight at once, and the width of the shard pool they share")
		queueCap = flag.Int("queue", 64, "queued-job bound before submissions get 429")
		timeout  = flag.Duration("timeout", 2*time.Minute, "default per-job execution budget")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		traceOn  = flag.Bool("trace", false, "record worker spans; export at /debug/trace")
		sample   = flag.Duration("sample", 250*time.Millisecond, "telemetry time-series sampling interval (0 disables /v1/telemetry/series)")
		name     = flag.String("name", "", "shard name echoed by GET /v1/registry (for vcgate clusters; default \"vcprofd\")")
	)
	flag.Parse()

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
