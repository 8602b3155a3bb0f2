package main

// serve: the network front-end subcommand, plus the HTTP mode of
// serve-bench. Kept apart from main.go so the CLI surface of the paper
// pipeline (analyze/compile/run) stays readable.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/models"
	"repro/internal/server"
	"repro/internal/workload"

	sod2 "repro"
)

// resolveServeModels parses the -model value for serve: a single name,
// a comma-separated list, or "all".
func resolveServeModels(list string) []*models.Builder {
	if list == "all" {
		return models.All()
	}
	var out []*models.Builder
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		b, ok := models.Get(name)
		if !ok {
			fail(fmt.Errorf("unknown model %q", name))
		}
		out = append(out, b)
	}
	return out
}

// bootServer compiles (or store-boots) each model and wraps the
// sessions in the HTTP front-end. With a store it also prints the boot
// summary: how many models came up warm, and the process's compile
// counters, which read zero compile work when every model warm-booted.
func bootServer(builders []*models.Builder, device, storeDir string,
	batchWindow time.Duration, batchMax, maxConc, maxQueue int,
	deadline time.Duration, qps float64, burst int) (*server.Server, []server.Model) {
	var st *sod2.ArtifactStore
	if storeDir != "" {
		var err error
		if st, err = sod2.OpenStore(storeDir); err != nil {
			fail(err)
		}
	}
	var served []server.Model
	var warm int
	bootStart := time.Now()
	for _, b := range builders {
		var c *sod2.Compiled
		var vrep *sod2.VerifyReport
		var err error
		if st != nil {
			var info sod2.BootInfo
			c, vrep, info, err = sod2.CompileStored(b, st, device)
			if err == nil {
				printBoot(info)
				if info.Warm {
					warm++
				}
			}
		} else {
			c, vrep, err = sod2.CompileVerified(b)
		}
		if err != nil {
			fail(err)
		}
		mode := "memory plan unproven: dynamic allocation"
		if vrep.Mem.Proven {
			mode = "region-proven shape-family serving"
		}
		fmt.Printf("  %-18s %s\n", b.Name, mode)
		sess := c.NewSession(sod2.SessionOptions{
			Admission: sod2.AdmissionConfig{
				MaxConcurrent: maxConc,
				MaxQueue:      maxQueue,
			},
			Retry:          sod2.RetryPolicy{MaxAttempts: 2},
			RequestTimeout: deadline,
		})
		served = append(served, server.Model{Name: b.Name, Compiled: c, Session: sess})
	}
	if st != nil {
		fmt.Printf("store boot: %d warm / %d cold in %v\n",
			warm, len(builders)-warm, time.Since(bootStart).Round(time.Millisecond))
		ctr := sod2.BootCounters()
		fmt.Printf("compile counters: %d full compiles, %d warm loads, %d plan searches, %d verifier runs\n",
			ctr.FullCompiles, ctr.WarmLoads, ctr.PlanSearches, ctr.VerifyRuns)
	}
	srv, err := server.New(served, server.Config{
		Batch: server.BatchConfig{Window: batchWindow, MaxBatch: batchMax},
		Quota: server.QuotaConfig{RatePerSec: qps, Burst: burst},
	})
	if err != nil {
		fail(err)
	}
	return srv, served
}

// serveCmd boots the HTTP serving front-end over one or more models and
// runs until SIGTERM/SIGINT, then drains gracefully: readiness flips
// first (load balancers stop routing), a grace period passes, the
// listener closes, pending batch buckets flush, and the sessions close.
func serveCmd(modelList, device, addr, storeDir string,
	batchWindow time.Duration, batchMax, maxConc, maxQueue int,
	deadline time.Duration, qps float64, burst int,
	drainGrace, drainTimeout time.Duration) {
	builders := resolveServeModels(modelList)
	fmt.Printf("booting %d model(s):\n", len(builders))
	srv, _ := bootServer(builders, device, storeDir,
		batchWindow, batchMax, maxConc, maxQueue, deadline, qps, burst)

	hs := srv.HTTPServer(addr)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("serving on http://%s (batch window %v, POST /v1/models/{name}/infer)\n",
		ln.Addr(), batchWindow)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		stop()
		fail(err)
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: flip readiness immediately so /readyz reports 503
	// while the listener still answers probes, wait out the grace
	// period, then stop accepting and flush/close everything.
	fmt.Fprintf(os.Stderr, "sod2 serve: signal received, draining (grace %v)\n", drainGrace)
	srv.StartDraining()
	time.Sleep(drainGrace)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "sod2 serve: http shutdown: %v\n", err)
	}
	if err := srv.Drain(dctx); err != nil {
		fail(fmt.Errorf("drain: %w", err))
	}
	fmt.Fprintln(os.Stderr, "sod2 serve: drained cleanly")
}

// sampleCmd emits one wire-format InferRequest JSON body for a model on
// stdout — the curl/CI companion of serve:
//
//	sod2 sample -model CodeBERT | curl -sd @- localhost:8080/v1/models/CodeBERT/infer
func sampleCmd(name string, size int64, gate float64, seed uint64) {
	b, ok := models.Get(name)
	if !ok {
		fail(fmt.Errorf("unknown model %q", name))
	}
	if size == 0 {
		size = b.MinSize
	}
	s := workload.Fixed(b, 1, size, float32(gate), seed)[0]
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(server.EncodeInputs(s.Inputs)); err != nil {
		fail(err)
	}
}

// percentile picks the p-th percentile (0 < p <= 1) from sorted
// latencies by nearest rank: the smallest sample at or above a p share
// of the samples, so a tail percentile is never under-reported.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(p*float64(len(sorted)))), 1), len(sorted))
	return sorted[rank-1]
}

// httpBenchPass drives one serving configuration over the wire and
// returns its latency distribution plus the amortization counters.
type httpBenchPass struct {
	label      string
	wall       time.Duration
	latencies  []time.Duration
	served     int
	shed       int
	failed     int
	admissions uint64
	buckets    uint64
	members    uint64
}

func runHTTPBenchPass(label string, b *models.Builder, device, storeDir string,
	requests, workers, distinct, maxConc, maxQueue int, deadline time.Duration,
	batchWindow time.Duration, batchMax int) httpBenchPass {
	srv, served := bootServer([]*models.Builder{b}, device, storeDir,
		batchWindow, batchMax, maxConc, maxQueue, deadline, 0, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	hs := srv.HTTPServer("")
	go hs.Serve(ln)
	url := fmt.Sprintf("http://%s/v1/models/%s/infer", ln.Addr(), b.Name)

	pool := workload.Samples(b, distinct, 42)
	bodies := make([][]byte, len(pool))
	for i, s := range pool {
		bodies[i], err = json.Marshal(server.EncodeInputs(s.Inputs))
		if err != nil {
			fail(err)
		}
	}

	pass := httpBenchPass{label: label, latencies: make([]time.Duration, 0, requests)}
	var mu sync.Mutex
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			for i := range jobs {
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case err != nil:
					pass.failed++
				case resp.StatusCode == http.StatusOK:
					pass.served++
					pass.latencies = append(pass.latencies, lat)
				case resp.StatusCode == http.StatusTooManyRequests,
					resp.StatusCode == http.StatusServiceUnavailable:
					pass.shed++
				default:
					pass.failed++
				}
				mu.Unlock()
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < requests; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	pass.wall = time.Since(start)

	st := served[0].Session.Stats()
	pass.admissions = st.Admission.Admitted
	pass.buckets = st.Buckets
	pass.members = st.BucketMembers

	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.StartDraining()
	hs.Shutdown(dctx)
	if err := srv.Drain(dctx); err != nil {
		fail(err)
	}
	sort.Slice(pass.latencies, func(i, j int) bool { return pass.latencies[i] < pass.latencies[j] })
	return pass
}

func (p httpBenchPass) print(requests int) {
	fmt.Printf("%-14s wall %8v   %7.1f req/s   served %d  shed %d  failed %d\n",
		p.label+":", p.wall.Round(time.Millisecond),
		float64(requests)/p.wall.Seconds(), p.served, p.shed, p.failed)
	fmt.Printf("%-14s p50 %v   p90 %v   p99 %v\n", "",
		percentile(p.latencies, 0.50).Round(10*time.Microsecond),
		percentile(p.latencies, 0.90).Round(10*time.Microsecond),
		percentile(p.latencies, 0.99).Round(10*time.Microsecond))
	ratio := 0.0
	if p.buckets > 0 {
		ratio = float64(p.members) / float64(p.buckets)
	}
	fmt.Printf("%-14s admissions %d   buckets %d (avg %.1f members — requests per reservation)\n",
		"", p.admissions, p.buckets, ratio)
}

// httpBenchCmd is serve-bench -http: the same request stream measured
// through the wire twice — per-request serving vs shape-family batched
// serving — printing the throughput and latency-percentile comparison
// the batching layer is justified by.
func httpBenchCmd(name, device string, requests, workers, distinct,
	maxConc, maxQueue int, deadline time.Duration, storeDir string,
	batchWindow time.Duration, batchMax int) {
	b, ok := models.Get(name)
	if !ok {
		fail(fmt.Errorf("unknown model %q", name))
	}
	if distinct < 1 {
		distinct = 1
	}
	if batchWindow <= 0 {
		batchWindow = 2 * time.Millisecond
	}
	fmt.Printf("http bench: model=%s requests=%d workers=%d distinct=%d batch window=%v max=%d\n",
		name, requests, workers, distinct, batchWindow, batchMax)

	per := runHTTPBenchPass("per-request", b, device, storeDir,
		requests, workers, distinct, maxConc, maxQueue, deadline, 0, 0)
	batched := runHTTPBenchPass("batched", b, device, storeDir,
		requests, workers, distinct, maxConc, maxQueue, deadline, batchWindow, batchMax)

	per.print(requests)
	batched.print(requests)
	if per.wall > 0 && batched.wall > 0 {
		fmt.Printf("batched/per-request throughput: %.2fx\n",
			(float64(requests)/batched.wall.Seconds())/(float64(requests)/per.wall.Seconds()))
	}
}
