// Command sod2 is the reproduction's CLI: it compiles and runs the ten
// evaluation models through the full SoD² pipeline and exposes the
// intermediate artifacts (RDP analysis, fusion plan, execution plan).
//
// Usage:
//
//	sod2 models                         # list the ten evaluation models
//	sod2 analyze -model CodeBERT        # dump the RDP fixed point
//	sod2 compile -model YOLO-V6         # fusion/plan/MVC summary
//	sod2 run -model SkipNet -size 256   # one inference: measured + modeled report
//	sod2 serve -model CodeBERT -addr :8080   # HTTP serving front-end
//	sod2 serve -model all -store DIR    # every model, warm-booted from the store
//	sod2 sample -model CodeBERT         # wire-format request body for curl
//	sod2 serve-bench -model BERT -requests 64 -workers 4
//	sod2 serve-bench -model BERT -http  # batched vs per-request HTTP serving
//	sod2 lint -model YOLO-V6            # static verifier + lint diagnostics
//	sod2 lint -model all                # every model (CI runs this)
//	sod2 dot -model DGNet               # Graphviz rendering of the graph
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/frameworks"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/rdp"
	"repro/internal/tensor"
	"repro/internal/workload"

	sod2 "repro"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sod2 <models|analyze|compile|run|serve|sample|serve-bench|lint|dot|export|classify> [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	modelName := fs.String("model", "CodeBERT", "model name (see `sod2 models`)")
	size := fs.Int64("size", 0, "dynamic input extent (0 = model minimum)")
	gate := fs.Float64("gate", 0.5, "control-flow gate activity in [0,1]")
	device := fs.String("device", "sd888-cpu", "device profile: prices run's modeled report; keys the serve/serve-bench artifact store: sd888-cpu|sd888-gpu|sd835-cpu|sd835-gpu")
	requests := fs.Int("requests", 64, "serve-bench: total requests to issue")
	workers := fs.Int("workers", 4, "serve-bench: concurrent workers")
	distinct := fs.Int("distinct", 8, "serve-bench: distinct samples cycled through the request stream")
	maxConc := fs.Int("max-concurrent", 0, "serve-bench: admission concurrency cap (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "serve-bench: bounded admission queue past the concurrency cap")
	deadline := fs.Duration("deadline", 0, "serve-bench: per-request deadline (0 = none)")
	faultEvery := fs.Int64("fault-every", 0, "serve-bench: inject a kernel fault every Nth launch (0 = off; exercises retry/breaker/quarantine)")
	threads := fs.Int("parallel", 0, "serve-bench: intra-op thread budget per request (0 or 1 = sequential kernels)")
	dtype := fs.String("dtype", "f32", "serve-bench: weight storage format — f32, int8, q4_0, or q4_1 (quantized formats serve under the model's accuracy-drift contract)")
	storeDir := fs.String("store", "", "serve / serve-bench: compiled-artifact store directory (warm-boots from saved artifacts; cold compiles save into it)")
	jsonOut := fs.Bool("json", false, "lint: emit machine-readable JSON reports instead of text")
	addr := fs.String("addr", "127.0.0.1:8080", "serve: listen address")
	batchWindow := fs.Duration("batch-window", 2*time.Millisecond, "serve / serve-bench -http: cross-request coalescing window (0 = per-request serving)")
	batchMax := fs.Int("batch-max", 8, "serve / serve-bench -http: flush a shape-family bucket at this size")
	qps := fs.Float64("qps", 0, "serve: per-client token-bucket rate (0 = no quota)")
	burst := fs.Int("burst", 0, "serve: per-client token-bucket burst (0 = derived from -qps)")
	drainGrace := fs.Duration("drain-grace", 2*time.Second, "serve: readiness-flip to listener-close grace period on SIGTERM")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "serve: bound on flushing buckets and closing sessions")
	seed := fs.Uint64("seed", 42, "sample: RNG seed for the generated inputs")
	httpMode := fs.Bool("http", false, "serve-bench: measure over the wire — batched vs per-request HTTP serving")
	_ = fs.Parse(os.Args[2:])

	if err := checkNonNegative(fs); err != nil {
		fmt.Fprintf(os.Stderr, "sod2: %v\n", err)
		usage()
	}

	switch cmd {
	case "models":
		listModels()
	case "analyze":
		withModel(*modelName, analyzeCmd)
	case "compile":
		withModel(*modelName, compileCmd)
	case "run":
		runCmd(*modelName, *size, float32(*gate), *device)
	case "serve":
		serveCmd(*modelName, *device, *addr, *storeDir,
			*batchWindow, *batchMax, *maxConc, *maxQueue, *deadline,
			*qps, *burst, *drainGrace, *drainTimeout)
	case "sample":
		sampleCmd(*modelName, *size, *gate, *seed)
	case "serve-bench":
		if *httpMode {
			httpBenchCmd(*modelName, *device, *requests, *workers, *distinct,
				*maxConc, *maxQueue, *deadline, *storeDir, *batchWindow, *batchMax)
		} else {
			serveBenchCmd(*modelName, *device, *requests, *workers, *distinct,
				*maxConc, *maxQueue, *deadline, *faultEvery, *threads, *storeDir, *dtype)
		}
	case "lint":
		lintCmd(*modelName, *jsonOut)
	case "dot":
		withModel(*modelName, func(b *models.Builder) {
			fmt.Print(b.Build().DOT())
		})
	case "export":
		withModel(*modelName, func(b *models.Builder) {
			if err := b.Build().WriteJSON(os.Stdout); err != nil {
				fail(err)
			}
		})
	case "classify":
		classifyCmd()
	default:
		usage()
	}
}

// checkNonNegative rejects a negative value of any integer or duration
// flag. Every one of them is a count, a size, a cap or a time span, so a
// negative value is a configuration error, never "unlimited" or
// "default", and must not reach a subcommand.
func checkNonNegative(fs *flag.FlagSet) (err error) {
	fs.VisitAll(func(f *flag.Flag) {
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case int64:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		}
		if neg && err == nil {
			err = fmt.Errorf("-%s (%v) must be non-negative", f.Name, f.Value)
		}
	})
	return err
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sod2: %v\n", err)
	os.Exit(1)
}

func withModel(name string, f func(b *models.Builder)) {
	b, ok := models.Get(name)
	if !ok {
		fail(fmt.Errorf("unknown model %q", name))
	}
	f(b)
}

// classifyCmd prints the operator registry grouped by dynamism class —
// this repository's rendering of the paper's Table 2.
func classifyCmd() {
	byClass := map[ops.DynClass][]string{}
	for _, t := range ops.Types() {
		byClass[ops.ClassOf(t)] = append(byClass[ops.ClassOf(t)], t)
	}
	for c := ops.ISDO; c <= ops.EDO; c++ {
		fmt.Printf("%s (%d ops):\n", c, len(byClass[c]))
		for _, t := range byClass[c] {
			fmt.Printf("  %s\n", t)
		}
	}
}

// lintCmd runs the static plan verifier + graph lint over one model (or
// all of them) and prints the stable diagnostics report — the same text
// the golden-snapshot tests pin. -json switches to the machine-readable
// form (same findings, stable field order). Exits non-zero when any
// Error-severity diagnostic is found, so CI can gate on it.
func lintCmd(name string, jsonOut bool) {
	targets := models.All()
	if name != "all" {
		b, ok := models.Get(name)
		if !ok {
			fail(fmt.Errorf("unknown model %q", name))
		}
		targets = []*models.Builder{b}
	}
	errors := 0
	for i, b := range targets {
		if i > 0 && !jsonOut {
			fmt.Println()
		}
		_, rep, err := frameworks.CompileVerified(b)
		if err != nil {
			fail(err)
		}
		if jsonOut {
			s, jerr := rep.FormatJSON()
			if jerr != nil {
				fail(jerr)
			}
			fmt.Print(s)
		} else {
			fmt.Print(rep.Format())
		}
		errors += rep.Errors()
	}
	if errors > 0 {
		fmt.Fprintf(os.Stderr, "sod2 lint: %d error-severity diagnostics\n", errors)
		os.Exit(1)
	}
}

func listModels() {
	fmt.Printf("%-18s %-5s %-11s %s\n", "MODEL", "DYN", "INPUT", "SIZE RANGE")
	for _, b := range models.All() {
		fmt.Printf("%-18s %-5s %-11s %d–%d (step %d)\n",
			b.Name, b.Dynamism, b.Kind, b.MinSize, b.MaxSize, b.SizeStep)
	}
}

func analyzeCmd(b *models.Builder) {
	g := b.Build()
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		fail(err)
	}
	fmt.Print(res.Dump())
	st := res.Statistics()
	fmt.Printf("\n%d tensors, %.1f%% resolved, %d iterations, %d backward-resolved\n",
		st.Total, st.ResolvedFraction()*100, res.Iterations, res.BackwardResolved)
	classes := make([]rdp.DimClass, 0, len(st.ByClass))
	for c := range st.ByClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		fmt.Printf("  %-12s %d\n", c, st.ByClass[c])
	}
}

func compileCmd(b *models.Builder) {
	c, err := frameworks.Compile(b)
	if err != nil {
		fail(err)
	}
	fmt.Printf("model %s: %d ops (%d incl. subgraphs)\n", b.Name, len(c.Graph.Nodes), c.Graph.NumOps())
	fmt.Printf("fusion (RDP):    %d groups, %d internal tensors eliminated\n",
		len(c.FusionRDP.Groups), len(c.FusionRDP.Internal))
	fmt.Printf("fusion (static): %d groups\n", len(c.FusionStatic().Groups))
	fmt.Printf("execution plan:  %d sub-graphs, est. peak %d bytes\n",
		len(c.ExecPlan.Subgraphs), c.ExecPlan.PeakBytes)
	for _, sg := range c.ExecPlan.Subgraphs {
		fmt.Printf("  sub-graph %2d: %2d ops, %-16s versions=%d method=%s\n",
			sg.ID, len(sg.Nodes), sg.Class, sg.Versions, sg.Method)
	}
	mp := c.MVCPlan()
	fmt.Printf("MVC: %d hotspot ops, %d total code versions\n", len(mp.Hotspots), mp.TotalVersions)
}

func runCmd(name string, size int64, gate float32, device string) {
	b, ok := models.Get(name)
	if !ok {
		fail(fmt.Errorf("unknown model %q", name))
	}
	if size == 0 {
		size = b.MinSize
	}
	dev, ok := sod2.DeviceByName(device)
	if !ok {
		fail(fmt.Errorf("unknown device %q", device))
	}
	c, err := sod2.Compile(b)
	if err != nil {
		fail(err)
	}
	s := workload.Fixed(b, 1, size, gate, 42)[0]
	out, rep, err := c.Infer(s.Inputs)
	if err != nil {
		fail(err)
	}
	fmt.Printf("model=%s size=%d gate=%.2f\n", name, size, gate)
	fmt.Printf("measured on this host: latency %.3f ms   peak memory %.2f MB   tier %s\n",
		rep.LatencyMS, float64(rep.PeakMemBytes)/(1<<20), rep.FallbackTier)
	for _, d := range rep.Degradations {
		fmt.Printf("  degraded: %s\n", d.String())
	}
	// The modeled report: the evaluation engine prices its own run.
	fc, err := frameworks.Compile(b)
	if err != nil {
		fail(err)
	}
	mrep, err := frameworks.NewSoD2(frameworks.FullSoD2()).Run(fc, s, dev)
	if err != nil {
		fail(err)
	}
	fmt.Printf("modeled on %s: latency %.3f ms   peak memory %.2f MB\n",
		dev.Name, mrep.LatencyMS, float64(mrep.PeakMemBytes)/(1<<20))
	for phase, ms := range mrep.Phases {
		fmt.Printf("  %-10s %.3f ms\n", phase, ms)
	}
	for name, t := range out {
		fmt.Printf("output %s: %v\n", name, t.Shape)
	}
}

// serveBenchCmd drives the concurrent serving facade: `requests`
// inferences cycled over `distinct` samples, fanned out over `workers`
// goroutines, with the resilience layer (admission gate, deadline, retry
// ladder, circuit breaker) on. -fault-every injects periodic kernel faults so the
// breaker/quarantine counters move.
func serveBenchCmd(name, device string, requests, workers, distinct,
	maxConc, maxQueue int, deadline time.Duration, faultEvery int64, threads int, storeDir string,
	dtype string) {
	b, ok := models.Get(name)
	if !ok {
		fail(fmt.Errorf("unknown model %q", name))
	}
	dev, ok := sod2.DeviceByName(device)
	if !ok {
		fail(fmt.Errorf("unknown device %q", device))
	}
	var cfg sod2.SchedConfig
	if dtype != "" && dtype != "f32" && dtype != "float32" {
		dt, ok := sod2.DTypeByName(dtype)
		if !ok || !dt.IsQuantized() {
			fail(fmt.Errorf("unknown weight dtype %q (have f32, int8, q4_0, q4_1)", dtype))
		}
		cfg.Quant = sod2.QuantConfig{Format: dt}
	}
	var c *sod2.Compiled
	var rep *sod2.VerifyReport
	if storeDir != "" {
		st, err := sod2.OpenStore(storeDir)
		if err != nil {
			fail(err)
		}
		var info sod2.BootInfo
		c, rep, info, err = sod2.CompileStoredSched(b, st, device, cfg)
		if err != nil {
			fail(err)
		}
		printBoot(info)
	} else {
		var err error
		c, rep, err = sod2.CompileVerifiedSched(b, cfg)
		if err != nil {
			fail(err)
		}
	}
	if q := c.Quant(); q != nil && q.Tensors > 0 {
		fmt.Printf("quant: %s weights — %d packed (%d skipped), %d → %d bytes (ratio %.3f), model resident %d B, drift budget %.3g abs + %.3g rel\n",
			q.Format, q.Tensors, q.Skipped, q.FloatBytes, q.QuantBytes, q.BytesRatio(),
			c.WeightBytes(), q.Budget.MaxAbs, q.Budget.MaxRel)
	}
	if rep.Mem.Proven {
		fmt.Printf("static verify: memory plan proven over region — shape-family serving on\n")
	} else {
		fmt.Printf("static verify: unprovable (%s) — requests run with dynamic allocation\n", rep.Mem.Reason)
	}
	if distinct < 1 {
		distinct = 1
	}
	pool := workload.Samples(b, distinct, 42)
	stream := make([]sod2.Sample, requests)
	for i := range stream {
		stream[i] = pool[i%distinct]
	}

	opts := sod2.SessionOptions{
		Workers: workers,
		Admission: sod2.AdmissionConfig{
			MaxConcurrent: maxConc,
			MaxQueue:      maxQueue,
		},
		Retry:          sod2.RetryPolicy{MaxAttempts: 2},
		RequestTimeout: deadline,
		Threads:        threads,
	}
	var hooks *exec.Hooks
	if faultEvery > 0 {
		var launches atomic.Int64
		hooks = &exec.Hooks{PreKernel: func(n *graph.Node, _ []*tensor.Tensor) error {
			if launches.Add(1)%faultEvery == 0 {
				return fmt.Errorf("serve-bench: injected kernel fault at %s", n.Name)
			}
			return nil
		}}
		opts.Hooks = hooks
	}
	sess := c.NewSession(opts)
	start := time.Now()
	results := sess.InferBatch(stream)
	wall := time.Since(start)

	var failed, shed, cancelled, regionHits int
	worstTier := sod2.TierPlanned
	for _, r := range results {
		if r.Err != nil {
			switch {
			case errors.Is(r.Err, sod2.ErrOverloaded):
				shed++
			case r.Cancelled:
				cancelled++
			default:
				failed++
			}
			continue
		}
		if r.Report.RegionCacheHit {
			regionHits++
		}
		if r.Report.FallbackTier > worstTier {
			worstTier = r.Report.FallbackTier
		}
	}
	served := requests - failed - shed - cancelled
	st := sess.Stats()
	fmt.Printf("model=%s device=%s requests=%d workers=%d distinct=%d\n",
		name, dev.Name, requests, workers, distinct)
	fmt.Printf("wall: %v   throughput: %.1f req/s   failed: %d   shed: %d   cancelled: %d   worst tier: %s\n",
		wall.Round(time.Millisecond), float64(requests)/wall.Seconds(), failed, shed, cancelled, worstTier)
	fmt.Printf("region plan: %d/%d request hits (one static proof serves every in-region shape)\n",
		regionHits, served)
	if threads > 1 {
		fmt.Printf("intra-op threads: %d per request, on every tier\n", threads)
	}
	fmt.Printf("health: %s   breaker: %d faults / %d successes, %d trips, reverify %d pass / %d fail\n",
		st.Health, st.Breaker.Faults, st.Breaker.Successes, st.Breaker.Trips,
		st.Breaker.ReverifyPass, st.Breaker.ReverifyFail)
	fmt.Printf("admission: %d admitted, %d shed (%d concurrency / %d memory), %d abandoned   retries: %d\n",
		st.Admission.Admitted, st.Admission.Shed(), st.Admission.ShedConcurrency,
		st.Admission.ShedMemory, st.Admission.Abandoned, st.Retries)
}

// printBoot renders one model's store-boot outcome.
func printBoot(bi sod2.BootInfo) {
	mode := "cold compile"
	if bi.Warm {
		mode = "warm boot"
	}
	fmt.Printf("  %-18s %-12s %9.2f ms  (verify %7.2f ms)", bi.Model, mode, bi.BootMS, bi.VerifyMS)
	if bi.Saved {
		fmt.Printf("  [artifact saved]")
	}
	if bi.CorruptFallback != nil {
		fmt.Printf("  [corrupt artifact quarantined: %v]", bi.CorruptFallback)
	}
	fmt.Println()
}
