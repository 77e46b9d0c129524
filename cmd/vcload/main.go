// Command vcload is a deterministic closed-loop load generator for
// vcprofd. A seeded PRNG draws a fixed job mix over the clip catalog ×
// encoder families × a CRF spread; -c workers each drive one job at a
// time through the full lifecycle (submit, one waiting fetch), so offered
// load is closed-loop, not open-loop. Every pass with the same seed and
// count generates byte-identical specs, and the tool folds every result
// body into one order-independent digest — two passes against any
// server (fresh, warm, restarted) must print the same digest or the
// serving layer broke determinism.
//
// Usage:
//
//	vcload -addr 127.0.0.1:8791 -n 200 -c 16
//	vcload -n 500 -c 32 -seed 7 -bench
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcprof/internal/cluster"
	"vcprof/internal/encoders"
	"vcprof/internal/obs"
	"vcprof/internal/service"
	"vcprof/internal/telemetry"
	"vcprof/internal/video"
)

// latHist is the client-side job latency distribution, on the same
// shared bucket layout as the server's svc.job.latency_ms — the two
// line up bucket for bucket, so its latency lines are comparable
// with what the daemon exposes on /metrics. Volatile: it
// measures wall time.
var latHist = obs.NewVolatileHistogram("vcload.latency_ms", telemetry.LatencyBucketsMS)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vcload:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:8791", "vcprofd address (host:port)")
		n       = flag.Int("n", 200, "total jobs to complete")
		conc    = flag.Int("c", 16, "closed-loop concurrency (in-flight jobs)")
		seed    = flag.Uint64("seed", 1, "job-mix seed")
		frames  = flag.Int("frames", 2, "frames per encode job")
		div     = flag.Int("div", 32, "resolution divisor per encode job")
		expFrac = flag.Int("exp-every", 0, "make every k-th job a quick experiment (0 = encodes only)")
		heavy   = flag.Int("heavy-every", 0, "make every k-th encode heavy (4× frames, 4× resolution, slowest preset) — the bimodal mix the tail-latency study uses (0 = off)")
		flat    = flag.Bool("flat-prio", false, "serve everything at one priority class (the tail-latency study isolates cost-aware ordering from priority tiers)")
		bench   = flag.Bool("bench", false, "print the run as Go-benchmark-format lines")
		gate    = flag.Bool("gate", false, "the target is a gate (vcprofd -shards): fetch /v1/cluster/stats after the run and print per-route stats (warm-rate, hedges, failovers, per-shard rows)")
	)
	flag.Parse()
	if *n < 1 || *conc < 1 {
		return fmt.Errorf("-n and -c must be positive")
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	specs := buildMix(*seed, *n, *frames, *div, *expFrac, *heavy, *flat)

	// ^C ends every drive in flight, and each gives its job back to the
	// server on the way out (Client.Drive) instead of leaving it to run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	daemon := service.Client{Base: base, HTTP: &http.Client{Timeout: 5 * time.Minute}}
	var (
		next       atomic.Int64
		failures   atomic.Int64
		cached     atomic.Int64
		retried    atomic.Int64
		reconnects atomic.Int64
		mu         sync.Mutex
		latencies  = make([]time.Duration, *n)
		digests    = make([][32]byte, *n)
		firstErr   error
	)
	fail := func(err error) {
		failures.Add(1)
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				body, ds, err := driveJob(ctx, daemon, &specs[i])
				if err != nil {
					fail(fmt.Errorf("job %d: %w", i, err))
					continue
				}
				// Only the served latency reaches the distribution:
				// admission retries are accounted separately, so a
				// saturated server shows up as retries, not as a fake
				// latency tail.
				latencies[i] = ds.Served
				latHist.Observe(uint64(ds.Served.Milliseconds()))
				digests[i] = sha256.Sum256(body)
				if ds.Cached {
					cached.Add(1)
				}
				retried.Add(int64(ds.Retries429))
				reconnects.Add(int64(ds.Reconnects))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	if f := failures.Load(); f > 0 {
		return fmt.Errorf("%d/%d jobs failed; first: %w", f, *n, firstErr)
	}

	done := *n
	attempts := int64(done) + retried.Load() + reconnects.Load()
	fmt.Printf("vcload: %d jobs ok in %.2fs (%.1f jobs/s, c=%d)\n",
		done, wall.Seconds(), float64(done)/wall.Seconds(), *conc)
	fmt.Printf("cached-at-submit %d/%d (%.1f%%), %d retries after 429\n",
		cached.Load(), done, 100*float64(cached.Load())/float64(done), retried.Load())
	fmt.Printf("attempts %d (%d served + %d retries_429 + %d reconnects); latency counts served time only\n",
		attempts, done, retried.Load(), reconnects.Load())
	fmt.Print(telemetry.RenderHistogram(latHist.Snapshot(), "ms"))
	// The digest folds per-job result digests in job-index order — a
	// pure function of (seed, n, frames, div) and the service's result
	// bytes, independent of worker interleaving, topology and routing.
	fmt.Printf("digest %s\n", obs.FoldDigest(digests))

	if *gate {
		if err := printGateStats(ctx, daemon); err != nil {
			fmt.Fprintf(os.Stderr, "vcload: gate stats: %v\n", err)
		}
	}

	if *bench {
		perJob := wall.Nanoseconds() / int64(done)
		quantiles := func(tag string, lats []time.Duration) {
			if len(lats) == 0 {
				return
			}
			sorted := append([]time.Duration(nil), lats...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			p := func(q float64) int64 { return sorted[int(q*float64(len(sorted)-1))].Nanoseconds() }
			fmt.Printf("BenchmarkServeLatency%sP50 %d %d ns/op\n", tag, len(sorted), p(0.50))
			fmt.Printf("BenchmarkServeLatency%sP95 %d %d ns/op\n", tag, len(sorted), p(0.95))
			fmt.Printf("BenchmarkServeLatency%sP99 %d %d ns/op\n", tag, len(sorted), p(0.99))
		}
		fmt.Printf("BenchmarkServeJob %d %d ns/op\n", done, perJob)
		quantiles("", latencies)
		// In a bimodal mix the populations have different tails by
		// construction, so publish them separately: the light-job p99 is
		// the study's headline metric (heavy jobs drown it out of the
		// combined quantile).
		if *heavy > 0 {
			var light, heavyLat []time.Duration
			for i, spec := range specs {
				switch {
				case spec.Kind != service.KindEncode:
				case (i+1)%*heavy == 0:
					heavyLat = append(heavyLat, latencies[i])
				default:
					light = append(light, latencies[i])
				}
			}
			quantiles("Light", light)
			quantiles("Heavy", heavyLat)
		}
	}
	return nil
}

// printGateStats renders the per-route report after a -gate run: the
// router's aggregate counters (the warm-rate line is the one the
// cluster smoke greps) plus one row per shard.
func printGateStats(ctx context.Context, gate service.Client) error {
	body, err := gate.Get(ctx, "/v1/cluster/stats")
	if err != nil {
		return fmt.Errorf("%w (is the target really a gate?)", err)
	}
	var s cluster.Stats
	if err := json.Unmarshal(body, &s); err != nil {
		return err
	}
	fmt.Printf("gate warm-rate %.1f%% (%d/%d warm routes), hedges %d launched %d won, failovers %d, fallbacks %d\n",
		s.WarmRatePct, s.WarmHits, s.Routes, s.HedgesLaunched, s.HedgesWon, s.Failovers, s.Fallbacks)
	for _, row := range s.Shards {
		state := "alive"
		if !row.Alive {
			state = "dead"
		}
		fmt.Printf("gate shard %s: %s, routes %d, warm %d, failures %d, p50 %dms, p95 %dms (%d obs)\n",
			row.Name, state, row.Routes, row.WarmHits, row.Failures,
			row.LatencyP50MS, row.LatencyP95MS, row.LatencyObs)
	}
	return nil
}

// buildMix derives the job list from the seed: a pure function, so
// every pass (and every process) with the same parameters offers the
// same work in the same order.
func buildMix(seed uint64, n, frames, div, expEvery, heavyEvery int, flatPrio bool) []service.JobSpec {
	clips := video.Vbench()
	fams := encoders.Families()
	exps := []string{"fig1", "fig4"}
	rng := splitmix{state: seed}
	specs := make([]service.JobSpec, n)
	for i := range specs {
		if expEvery > 0 && (i+1)%expEvery == 0 {
			specs[i] = service.JobSpec{
				Kind:       service.KindExperiment,
				Experiment: exps[int(rng.next()%uint64(len(exps)))],
				Quick:      true,
			}
		} else {
			fam := fams[int(rng.next()%uint64(len(fams)))]
			clip := clips[int(rng.next()%uint64(len(clips)))].Name
			enc := encoders.MustNew(fam)
			lo, hi := enc.CRFRange()
			// Four CRF operating points spread across the family range.
			crf := lo + int(rng.next()%4)*(hi-lo)/4
			plo, phi, reversed := enc.PresetRange()
			specs[i] = service.JobSpec{
				Kind:     service.KindEncode,
				Family:   string(fam),
				Clip:     clip,
				Frames:   frames,
				ScaleDiv: div,
				CRF:      crf,
				Preset:   (plo + phi) / 2,
				Threads:  1,
				Priority: int(rng.next() % 3),
			}
			// The heavy override lands after every rng draw: a run with
			// -heavy-every off draws the exact same stream, so the default
			// mix (and its digest) is untouched by the flag's existence.
			if heavyEvery > 0 && (i+1)%heavyEvery == 0 {
				specs[i].Frames = frames * 4
				if d := div / 4; d >= 1 {
					specs[i].ScaleDiv = d
				} else {
					specs[i].ScaleDiv = 1
				}
				if reversed {
					specs[i].Preset = phi // larger = slower (x264/x265)
				} else {
					specs[i].Preset = plo // smaller = slower
				}
			}
			// Like the heavy override, applied after the draws so the rng
			// stream (and the default mix) is untouched.
			if flatPrio {
				specs[i].Priority = 0
			}
		}
		specs[i].Normalize()
	}
	return specs
}

// splitmix is a tiny deterministic PRNG (splitmix64), used instead of
// math/rand so the mix is stable across Go releases and the tool stays
// inside the repo's no-ambient-randomness rule.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// maxReconnects bounds transport-level submit retries: transient
// connect errors (a gate failing over, a listener mid-restart) are
// retried with backoff and counted, anything persistent fails the job.
const maxReconnects = 3

// driveJob pushes one job through submit → waiting fetch and returns the
// result body plus the attempt/served split.
func driveJob(ctx context.Context, daemon service.Client, spec *service.JobSpec) ([]byte, service.DriveStats, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, service.DriveStats{}, err
	}
	return daemon.Drive(ctx, spec.Key(), payload, service.DriveOpts{Reconnects: maxReconnects})
}
