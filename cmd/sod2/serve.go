package main

// serve: the network front-end subcommand and its curl companion,
// sample. Kept apart from main.go so the CLI surface of the paper
// pipeline (analyze/compile/run) stays readable.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
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
	maxConc, maxQueue int, deadline time.Duration, qps float64, burst int) *server.Server {
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
		Quota: server.QuotaConfig{RatePerSec: qps, Burst: burst},
	})
	if err != nil {
		fail(err)
	}
	return srv
}

// serveCmd boots the HTTP serving front-end over one or more models and
// runs until SIGTERM/SIGINT, then drains gracefully: readiness flips
// first (load balancers stop routing), a grace period passes, the
// listener closes, and the sessions close once their in-flight
// requests finish.
func serveCmd(modelList, device, addr, storeDir string,
	maxConc, maxQueue int, deadline time.Duration, qps float64, burst int,
	drainGrace, drainTimeout time.Duration) {
	builders := resolveServeModels(modelList)
	fmt.Printf("booting %d model(s):\n", len(builders))
	srv := bootServer(builders, device, storeDir, maxConc, maxQueue, deadline, qps, burst)

	hs := srv.HTTPServer(addr)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Printf("serving on http://%s (POST /v1/models/{name}/infer)\n", ln.Addr())

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
	// period, then stop accepting and close everything.
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
