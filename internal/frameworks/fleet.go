package frameworks

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/artifact"
	"repro/internal/exec"
	"repro/internal/models"
	"repro/internal/resilience"
	"repro/internal/staticverify"
	"repro/internal/tensor"
)

// ErrUnknownModel is returned by Fleet inference for a model name the
// fleet does not serve.
var ErrUnknownModel = errors.New("frameworks: unknown model")

// FleetConfig configures a multi-model serving fleet.
type FleetConfig struct {
	// Device keys artifacts per device profile (default "cpu").
	Device string
	// Store, when non-nil, warm-boots models from persisted artifacts
	// and persists cold compiles back (see CompileWithStore).
	Store *artifact.Store
	// Admission bounds the whole fleet: one slot semaphore and one
	// arena-byte budget shared by every model.
	Admission resilience.AdmissionConfig
	// Shares maps model name → fraction of Admission.MemoryBudget that
	// model may hold reserved at once. Nil means an equal split across
	// the booted models; models absent from a non-nil map are bounded
	// only by the global budget.
	Shares map[string]float64
	// Guard is the base per-request guard configuration (Ctx is set per
	// request).
	Guard GuardOptions
}

// fleetModel is one served model.
type fleetModel struct {
	c    *Compiled
	rep  *staticverify.Report
	boot BootInfo
}

// Fleet serves many compiled models from one process behind a single
// shared admission gate: all models draw slots and arena-byte
// reservations from one ledger, each held to its configured share so a
// hot model cannot starve the rest. Boot goes through the artifact
// store when one is configured — warm from disk with verify-on-load,
// cold compile + save otherwise. Safe for concurrent use after BootFleet
// returns.
type Fleet struct {
	cfg    FleetConfig
	adm    *resilience.SharedAdmission
	order  []string
	models map[string]*fleetModel // read-only after BootFleet
}

// BootFleet compiles (or warm-boots) every builder and assembles the
// serving fleet. Boot is sequential so per-model BootInfo timings are
// honest; a corrupt artifact degrades that model's boot to a cold
// compile (recorded in its BootInfo), never fails the fleet. A builder
// that cannot compile at all fails the boot.
func BootFleet(builders []*models.Builder, cfg FleetConfig) (*Fleet, error) {
	if cfg.Device == "" {
		cfg.Device = "cpu"
	}
	shares := cfg.Shares
	if shares == nil && len(builders) > 0 {
		shares = make(map[string]float64, len(builders))
		for _, b := range builders {
			shares[b.Name] = 1 / float64(len(builders))
		}
	}
	f := &Fleet{
		cfg:    cfg,
		adm:    resilience.NewSharedAdmission(cfg.Admission, shares),
		models: make(map[string]*fleetModel, len(builders)),
	}
	for _, b := range builders {
		if _, dup := f.models[b.Name]; dup {
			return nil, fmt.Errorf("frameworks: fleet: duplicate model %q", b.Name)
		}
		c, rep, info, err := CompileWithStore(b, cfg.Store, cfg.Device)
		if err != nil {
			return nil, fmt.Errorf("frameworks: fleet: boot %q: %w", b.Name, err)
		}
		f.models[b.Name] = &fleetModel{c: c, rep: rep, boot: info}
		f.order = append(f.order, b.Name)
	}
	return f, nil
}

// Models returns the served model names in boot order.
func (f *Fleet) Models() []string {
	out := make([]string, len(f.order))
	copy(out, f.order)
	return out
}

// Model returns a served model's Compiled, or nil if unknown.
func (f *Fleet) Model(name string) *Compiled {
	if m, ok := f.models[name]; ok {
		return m.c
	}
	return nil
}

// Report returns a served model's static-verifier report, or nil.
func (f *Fleet) Report(name string) *staticverify.Report {
	if m, ok := f.models[name]; ok {
		return m.rep
	}
	return nil
}

// Boots returns every model's BootInfo in boot order.
func (f *Fleet) Boots() []BootInfo {
	out := make([]BootInfo, 0, len(f.order))
	for _, name := range f.order {
		out = append(out, f.models[name].boot)
	}
	return out
}

// Infer serves one request for the named model.
func (f *Fleet) Infer(model string, inputs map[string]*tensor.Tensor) (*exec.Result, *GuardReport, error) {
	return f.InferCtx(context.Background(), model, inputs)
}

// InferCtx serves one request for the named model through the shared
// admission gate (the reservation estimate is the statically proven
// worst-case footprint of the arena layout the request runs on) and the model's guarded runtime.
// Sheds are typed *resilience.OverloadError carrying the model name in
// Key; an unknown model is errors.Is(ErrUnknownModel).
func (f *Fleet) InferCtx(ctx context.Context, model string, inputs map[string]*tensor.Tensor) (*exec.Result, *GuardReport, error) {
	m, ok := f.models[model]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q (serving: %v)", ErrUnknownModel, model, f.order)
	}
	gopts := f.cfg.Guard
	gopts.Ctx = ctx
	release, err := f.adm.Admit(ctx, model, m.c.PlannedArenaBytes(gopts))
	if err != nil {
		return nil, nil, err
	}
	defer release()
	return m.c.GuardedRun(inputs, gopts)
}

// FleetStats snapshots the fleet's admission ledger.
type FleetStats struct {
	// Global is the process-wide gate (slots, queue, whole budget).
	Global resilience.AdmissionStats
	// PerModel holds each model's share ledger, keyed by model name.
	PerModel map[string]resilience.ShareStats
}

// Stats snapshots the shared gate. Every served model has an entry in
// PerModel, idle ones included (the gate itself only tracks tenants it
// has configured or seen).
func (f *Fleet) Stats() FleetStats {
	per := f.adm.PerKey()
	for _, name := range f.order {
		if _, ok := per[name]; !ok {
			per[name] = resilience.ShareStats{}
		}
	}
	return FleetStats{Global: f.adm.Global(), PerModel: per}
}

// WarmCount returns how many models warm-booted from the store and how
// many fell back to (or started as) cold compiles.
func (f *Fleet) WarmCount() (warm, cold int) {
	for _, name := range f.order {
		if f.models[name].boot.Warm {
			warm++
		} else {
			cold++
		}
	}
	return warm, cold
}
