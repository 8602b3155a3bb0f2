package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	sod2 "repro"
	"repro/internal/absint"
	"repro/internal/artifact"
	"repro/internal/costmodel"
	"repro/internal/frameworks"
	"repro/internal/fusion"
	"repro/internal/models"
	"repro/internal/mvc"
	"repro/internal/plan"
	"repro/internal/rdp"
	"repro/internal/server"
	"repro/internal/tensor"
	inputs "repro/internal/workload"
)

// storeDevice keys the traced run's temporary artifact store; it is the
// profile `sod2 serve` defaults to.
const storeDevice = "sd888-cpu"

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// compileLayer times the compile pipeline of one model from outside:
// the whole cold compile, each stage called on its own through its
// public entry point with the inputs the pipeline gives it, and the
// artifact store's save and warm boot. It returns the cold compile,
// which the layer calls of the traced lap then run on.
func compileLayer(b *models.Builder, cfg frameworks.SchedConfig, st *artifact.Store, acc map[string]float64) (*frameworks.Compiled, error) {
	start := time.Now()
	fc, rep, err := frameworks.CompileVerifiedSched(b, cfg)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", b.Name, err)
	}
	acc["compile.total_ms"] += ms(time.Since(start))

	stage := func(name string, fn func() error) error {
		t := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s %s: %w", name, b.Name, err)
		}
		acc[name] += ms(time.Since(t))
		return nil
	}
	stages := []struct {
		name string
		fn   func() error
	}{
		{"compile.rdp_ms", func() error {
			_, err := rdp.Analyze(fc.OrigGraph, nil, rdp.Options{})
			return err
		}},
		{"compile.absint_ms", func() error {
			_, _, err := absint.Specialize(fc.OrigGraph, fc.OrigInfos, absint.Options{Region: rep.Region})
			return err
		}},
		{"compile.fusion_ms", func() error {
			fusion.Fuse(fc.Graph, fc.Infos, fusion.RDP)
			fusion.Fuse(fc.Graph, fc.Infos, fusion.Static)
			return nil
		}},
		{"compile.plan_ms", func() error {
			_, err := plan.Build(fc.Graph, fc.Infos, plan.Options{Fusion: fc.FusionRDP})
			return err
		}},
		{"compile.mvc_ms", func() error {
			mvc.BuildPlan(fc.Graph, fc.Infos, b.MinSize, b.MaxSize)
			mvc.BuildPlanRegion(fc.Graph, fc.Infos, b.MinSize, b.MaxSize, rep.Region)
			return nil
		}},
		{"compile.verify_ms", func() error {
			fc.Invalidate() // drop the memoized proof so Verify really runs
			if !fc.Verify().Mem.Proven {
				return fmt.Errorf("memory plan no longer proven")
			}
			return nil
		}},
	}
	for _, s := range stages {
		if err := stage(s.name, s.fn); err != nil {
			return nil, err
		}
	}

	hash, err := frameworks.ModelHash(fc.OrigGraph)
	if err != nil {
		return nil, err
	}
	key := artifact.Key{ModelHash: hash, Device: storeDevice}
	if cfg.Quant.Format.IsQuantized() {
		key.Config = cfg.Quant.Format.String()
	}
	if err := stage("artifact.save_ms", func() error {
		return st.Save(key, frameworks.Snapshot(fc, fc.Verify(), key))
	}); err != nil {
		return nil, err
	}
	if err := stage("artifact.warm_boot_ms", func() error {
		_, _, info, err := frameworks.CompileWithStoreSched(b, st, storeDevice, cfg)
		if err == nil && !info.Warm {
			err = fmt.Errorf("store boot came up cold (fallback: %v)", info.CorruptFallback)
		}
		return err
	}); err != nil {
		return nil, err
	}
	return fc, nil
}

// runTraced is the traced run: one full lap through the workload's
// request path with one client (rates, counters, per-model latencies,
// the output check), then — on a strided subset of the pool — one call
// into each layer's public entry point per entry, every call a span and
// every kernel a child span.
func runTraced(w workload, seed uint64, traceOut string) (*workloadResult, error) {
	builders, err := workloadBuilders(w)
	if err != nil {
		return nil, err
	}
	pool, warm, genS, err := generate(w, seed, builders)
	if err != nil {
		return nil, err
	}
	raw := map[string]float64{"gen_s": genS}

	// Compile layer, and the compiled models the layer calls run on.
	dir, err := os.MkdirTemp("", "sod2-benchmark-store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	cfg := w.schedConfig()
	layer := make(map[string]*frameworks.Compiled, len(builders))
	for _, b := range builders {
		if layer[b.Name], err = compileLayer(b, cfg, st, raw); err != nil {
			return nil, err
		}
	}

	sys, _, err := setUp(w, builders, warm)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	res, err := traceLaps(w, seed, sys, pool, layer, tr, raw)
	if terr := sys.tearDown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// traceLaps is the body of the traced run on a system that is up; raw
// already holds the compile-layer readings.
func traceLaps(w workload, seed uint64, sys *system, pool []entry, layer map[string]*frameworks.Compiled,
	tr *tracer, raw map[string]float64) (*workloadResult, error) {
	builders := sys.builders

	// Full lap, untraced, one client.
	cacheBefore := cacheTotals(sys)
	rec := runLaps(sys, pool, 1, 1)
	cacheDelta := cacheTotals(sys).sub(cacheBefore)
	or, sums, err := checkOracle(sys, pool, rec.first)
	if err != nil {
		return nil, err
	}
	if or.golden, err = checkGolden(w, seed, sums); err != nil {
		return nil, err
	}
	v := judge(pool, rec, or)
	n := float64(len(pool))

	var degraded, f32Tier, members, buckets, floatBytes, quantBytes float64
	perModel := map[string][]float64{}
	var bodyKB float64
	for i := range pool {
		c := &rec.cells[i][0]
		if c.err != nil {
			continue
		}
		if c.tier != sod2.TierPlanned {
			degraded++
		}
		if c.tier == sod2.TierFloat32 {
			f32Tier++
		}
		perModel[pool[i].Model] = append(perModel[pool[i].Model], c.latMS)
		bodyKB += float64(len(pool[i].Body)) / 1024
	}
	for _, b := range builders {
		ss := sys.sessions[b.Name].Stats()
		raw["session.shed"] += float64(ss.Admission.Shed())
		raw["session.retries"] += float64(ss.Retries)
		raw["session.coalesced"] += float64(ss.Coalesced)
		members += float64(ss.BucketMembers)
		buckets += float64(ss.Buckets)
		raw["model."+b.Name+".latency_ms"] = mean(perModel[b.Name])
		if q := sys.compiled[b.Name].Quant(); q != nil {
			raw["quant.tensors_packed"] += float64(q.Tensors)
			floatBytes += float64(q.FloatBytes)
			quantBytes += float64(q.QuantBytes)
		}
	}
	raw["quant.weight_bytes_ratio"] = 1
	if floatBytes > 0 {
		raw["quant.weight_bytes_ratio"] = quantBytes / floatBytes
	}
	raw["quant.max_abs_drift"] = or.maxDrift
	raw["quant.f32_fallbacks"] = f32Tier
	raw["frameworks.degraded_rate"] = degraded / n
	raw["frameworks.region_hit_rate"] = float64(cacheDelta.RegionHits) / n
	raw["frameworks.plan_cache_hit_rate"] = rate(cacheDelta.PlanHits, cacheDelta.PlanMisses)
	raw["frameworks.trace_memo_hit_rate"] = rate(cacheDelta.TraceHits, cacheDelta.TraceMisses)
	raw["runtime.gc_cycles_per_req"] = float64(rec.use.gcCycles) / n
	raw["runtime.gc_pause_ms_per_req"] = ms(rec.use.gcPause) / n
	raw["oracle.checked"] = float64(or.checked)
	raw["oracle.bit_identical"] = float64(or.bitIdentical)
	raw["oracle.max_abs_diff"] = or.maxAbsDiff
	raw["oracle.golden_checked"] = float64(or.golden)
	if w.HTTP {
		raw["server.body_kb"] = bodyKB / n
		raw["server.http_4xx"], raw["server.http_5xx"] = statusCounts(rec)
		if buckets > 0 {
			raw["server.bucket_members_avg"] = members / buckets
		}
	}

	// Traced lap over the strided subset.
	hooks := tr.hooks()
	traced := map[string]*sod2.Session{}
	for _, b := range builders {
		traced[b.Name] = sys.compiled[b.Name].NewSession(sod2.SessionOptions{
			Retry: sod2.RetryPolicy{MaxAttempts: serveMaxAttempts}, Hooks: hooks,
		})
	}
	eng := frameworks.NewSoD2(frameworks.FullSoD2())
	ctx := context.Background()
	var (
		kern                                 kernelTotals
		tracedNS, plainNS, inferNS, modelNS  time.Duration
		plannedNS, dynamicNS, bindNS, httpNS time.Duration
		decodeNS, encodeNS                   time.Duration
		ops, arenaHW, interBytes, peakLive   float64
		modelAllocs                          = map[string][]float64{}
		count                                int
	)
	for i := range pool {
		e := &pool[i]
		if !e.OffPlan && e.Ord%w.TraceStride != 0 {
			continue
		}
		if rec.cells[i][0].err != nil {
			continue // already a failed request; nothing sound to trace
		}
		count++
		c, fc, in := sys.compiled[e.Model], layer[e.Model], e.Inputs
		var callErr error
		fail := func(what string, err error) {
			if err != nil && callErr == nil {
				callErr = fmt.Errorf("traced %s %s: %w", what, e.Key, err)
			}
		}

		tracedNS += tr.timed("session", i, nil, func() {
			_, _, err := traced[e.Model].InferConcurrentCtx(ctx, in)
			fail("session", err)
		})
		// The same call untraced, back to back: the pair gives the
		// tracing overhead, and with Compiled.Infer below the session's
		// own share.
		start := time.Now()
		_, _, err := sys.sessions[e.Model].InferConcurrentCtx(ctx, in)
		plainNS += time.Since(start)
		fail("untraced session", err)
		if w.HTTP {
			// The full lap timed this entry over the wire; the in-process
			// call above is what the wire adds to. Time the wire codec on
			// the same bytes.
			httpNS += time.Duration(rec.cells[i][0].latMS * 1e6)
			decodeNS += tr.timed("server.decode", i, nil, func() { fail("decode", decodeBody(e.Body)) })
			encodeNS += tr.timed("server.encode", i, nil, func() {
				fail("encode", encodeResponse(e.Model, rec.first[i], rec.cells[i][0]))
			})
		}

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		inferNS += tr.timed("frameworks.infer", i, nil, func() {
			_, _, err := c.Infer(in)
			fail("Infer", err)
		})
		runtime.ReadMemStats(&m1)
		modelAllocs[e.Model] = append(modelAllocs[e.Model], float64(m1.Mallocs-m0.Mallocs))

		bindNS += tr.timed("frameworks.bind", i, nil, func() {
			_, err := c.Contract().BindInputs(in)
			fail("BindInputs", err)
			c.FamilyKey(in)
		})
		plannedNS += tr.timed("exec.planned", i, &kern, func() {
			res, gr, err := fc.GuardedRun(in, frameworks.GuardOptions{Hooks: hooks})
			fail("GuardedRun", err)
			if err == nil {
				for _, ev := range res.Trace.Events {
					if !ev.Skipped {
						ops++
					}
				}
				arenaHW += float64(gr.ArenaHighWater)
				interBytes += float64(res.Trace.TotalAllocBytes)
				peakLive += float64(res.Trace.PeakLiveBytes)
			}
		})
		dynamicNS += tr.timed("exec.dynamic", i, nil, func() {
			_, _, err := fc.GuardedRun(in, frameworks.GuardOptions{ForceDynamic: true})
			fail("GuardedRun{ForceDynamic}", err)
		})
		modelNS += tr.timed("frameworks.model", i, nil, func() {
			_, err := eng.Run(fc, inputs.Sample{Inputs: in}, costmodel.SD888CPU)
			fail("SoD2.Run", err)
		})
		if callErr != nil {
			return nil, callErr
		}
	}
	for _, b := range builders {
		if err := traced[b.Name].Close(ctx); err != nil {
			return nil, err
		}
	}
	if count == 0 {
		return nil, fmt.Errorf("%s: no entry could be traced", w.Name)
	}

	per := func(d time.Duration) float64 { return ms(d) / float64(count) }
	raw["session.self_ms"] = per(plainNS - inferNS)
	raw["frameworks.infer_ms"] = per(inferNS)
	raw["frameworks.guarded_ms"] = per(plannedNS)
	raw["frameworks.model_ms"] = per(modelNS)
	raw["frameworks.second_exec_share"] = ms(modelNS) / ms(inferNS)
	raw["frameworks.bind_ms"] = per(bindNS)
	raw["exec.planned_ms"] = per(plannedNS)
	raw["exec.dynamic_ms"] = per(dynamicNS)
	raw["exec.planned_over_dynamic"] = ms(plannedNS) / ms(dynamicNS)
	raw["exec.interp_ms"] = per(plannedNS - time.Duration(kern.totalNS()))
	raw["exec.ops_per_req"] = ops / float64(count)
	raw["exec.arena_high_water_kb"] = arenaHW / 1024 / float64(count)
	raw["exec.intermediate_kb_per_req"] = interBytes / 1024 / float64(count)
	raw["exec.peak_live_kb"] = peakLive / 1024 / float64(count)
	raw["kernels.total_ms"] = per(time.Duration(kern.totalNS()))
	for cls, name := range classNames {
		raw["kernels."+name+"_ms"] = per(time.Duration(kern.ns[cls]))
	}
	if kern.matmulFLOPNS > 0 {
		raw["kernels.matmul_gflops"] = kern.matmulFLOP / float64(kern.matmulFLOPNS)
	}
	if kern.convFLOPNS > 0 {
		raw["kernels.conv_gflops"] = kern.convFLOP / float64(kern.convFLOPNS)
	}
	for name, a := range modelAllocs {
		raw["model."+name+".allocs_per_req"] = mean(a)
	}
	raw["trace.overhead_pct"] = 100 * (ms(tracedNS) - ms(plainNS)) / ms(plainNS)
	if w.HTTP {
		raw["server.decode_ms"] = per(decodeNS)
		raw["server.encode_ms"] = per(encodeNS)
		raw["server.overhead_ms"] = per(httpNS - plainNS)
	}
	return &workloadResult{
		Workload: w.Name, Traced: true, Laps: 1, Clients: 1, Pool: len(pool), TracedEntries: count,
		Samples: len(pool) - v.Failed, Requests: v, Correct: v.Failed == 0,
		Metrics: readings(perLayerDefs(), raw),
	}, nil
}

// cacheTotals sums the compiled models' cache counters.
type cacheCounts struct {
	TraceHits, TraceMisses, PlanHits, PlanMisses, RegionHits uint64
}

func cacheTotals(sys *system) cacheCounts {
	var t cacheCounts
	for _, b := range sys.builders {
		cs := sys.compiled[b.Name].CacheStats()
		t.TraceHits += cs.TraceHits
		t.TraceMisses += cs.TraceMisses
		t.PlanHits += cs.PlanHits
		t.PlanMisses += cs.PlanMisses
		t.RegionHits += cs.RegionHits
	}
	return t
}

func (c cacheCounts) sub(o cacheCounts) cacheCounts {
	return cacheCounts{
		TraceHits: c.TraceHits - o.TraceHits, TraceMisses: c.TraceMisses - o.TraceMisses,
		PlanHits: c.PlanHits - o.PlanHits, PlanMisses: c.PlanMisses - o.PlanMisses,
		RegionHits: c.RegionHits - o.RegionHits,
	}
}

// rate is hits over lookups (0 when nothing was looked up).
func rate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func statusCounts(rec *lapsRecord) (c4xx, c5xx float64) {
	for ei := range rec.cells {
		for _, c := range rec.cells[ei] {
			switch {
			case c.status >= 500:
				c5xx++
			case c.status >= 400:
				c4xx++
			}
		}
	}
	return c4xx, c5xx
}

// decodeBody is the server's request decode, called from outside: the
// strict JSON decode of the body and the validation into tensors that
// server.prep performs.
func decodeBody(body []byte) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req server.InferRequest
	if err := dec.Decode(&req); err != nil {
		return err
	}
	_, err := req.DecodeInputs()
	return err
}

// encodeResponse is the server's response encode, called from outside:
// the InferResponse handleInfer builds, marshalled the way it is sent.
func encodeResponse(model string, out map[string]*tensor.Tensor, c cell) error {
	resp := server.InferResponse{Model: model, Batched: c.batched,
		Report:  sod2.Report{FallbackTier: c.tier},
		Outputs: make(map[string]*server.WireTensor, len(out))}
	for name, t := range out {
		resp.Outputs[name] = server.ToWire(t)
	}
	return json.NewEncoder(io.Discard).Encode(resp)
}
