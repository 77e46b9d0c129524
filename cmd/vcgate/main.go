// Command vcgate is the cluster router daemon: it consistent-hashes
// content-addressed job ids across N vcprofd shards with replication
// factor R, routes warm (preferring the shard whose result store
// already holds the id), hedges slow requests after a quantile-derived
// delay, and fails over with backoff when a shard dies mid-job. Its
// HTTP surface is vcprofd's job lifecycle — submit, poll, fetch — so
// any daemon client (vcload included) points at the gate unchanged,
// plus /v1/cluster/stats and /v1/cluster/shards for routing
// introspection.
//
// Usage:
//
//	vcgate -shards http://127.0.0.1:8791,http://127.0.0.1:8792
//	vcgate -addr 127.0.0.1:0 -shards s1=http://h1:8791,s2=http://h2:8791 -replicas 2
//
// The daemon prints "listening on <host:port>" once the socket is
// bound (scripts parse this to discover a random port), serves until
// SIGINT/SIGTERM, then drains in-flight drives under -drain.
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
	"vcprof/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vcgate:", err)
		os.Exit(1)
	}
}

// parseShards turns "-shards" into the shard set: a comma-separated
// list of base URLs, each optionally prefixed "name=". Unnamed shards
// get s0, s1, ... in list order.
func parseShards(spec string) ([]cluster.Shard, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("-shards is required (comma-separated vcprofd base URLs)")
	}
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

func run() error {
	var (
		addr       = flag.String("addr", ":8790", "listen address (host:port; port 0 picks a free one)")
		shardsSpec = flag.String("shards", "", "vcprofd shards: comma-separated [name=]URL list")
		replicas   = flag.Int("replicas", 1, "replication factor R: owners per job id")
		drain      = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
	)
	flag.Parse()

	shards, err := parseShards(*shardsSpec)
	if err != nil {
		return err
	}

	// The router's base context is NOT a signal context: drives must
	// survive the start of a drain and only die when the drain budget
	// runs out (Shutdown cancels the base context itself).
	rt, err := cluster.NewRouter(context.Background(), cluster.Config{
		Shards:   shards,
		Replicas: *replicas,
		// Config's zero value disables the prober (tests step it by
		// hand); a deployed gate always probes.
		ProbeInterval: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	rt.Start()

	for _, sh := range shards {
		fmt.Fprintf(os.Stderr, "shard %s: %s\n", sh.Name, sh.URL)
	}
	return service.RunDaemon("vcgate", *addr, rt.Handler(), *drain, rt.Shutdown)
}
