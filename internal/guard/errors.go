// Package guard implements SoD²'s guarded-execution subsystem: runtime
// contract checking of the statically derived plans (RDP shape facts,
// execution orders), a structured error taxonomy
// for kernel failures and contract violations, and the degradation
// records the tiered fallback path (planned → dynamic → float32) leaves
// behind. The premise of the paper is that the runtime commits to
// offline plans; the premise of this package is that it must *verify*
// those plans against the actual input before committing, and degrade
// like Nimble's shape functions (per-tensor allocation, no per-request
// re-analysis) instead of crashing when an assumption does not hold.
package guard

import (
	"errors"
	"fmt"
	"strings"
)

// ErrPanic marks an error produced by containing a runtime panic at an
// operator boundary (use errors.Is to test).
var ErrPanic = errors.New("guard: contained panic")

// ErrContract is the class of all contract violations (use errors.Is).
var ErrContract = errors.New("guard: contract violation")

// OpError wraps a failure (error or contained panic) of one operator
// execution with enough structure for callers to triage it without
// string matching.
type OpError struct {
	// Node is the failing node's name; Op its operator type.
	Node string
	Op   string
	// InputShapes are the shapes of the inputs that were present when
	// the operator failed (nil when the failure preceded input binding).
	InputShapes [][]int64
	// Cause is the underlying error; for contained panics it wraps
	// ErrPanic.
	Cause error
}

// Error renders the failure with its input shapes.
func (e *OpError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "op %s(%s)", e.Op, e.Node)
	if len(e.InputShapes) > 0 {
		fmt.Fprintf(&b, " inputs=%v", e.InputShapes)
	}
	fmt.Fprintf(&b, ": %v", e.Cause)
	return b.String()
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *OpError) Unwrap() error { return e.Cause }

// ViolationKind classifies contract violations.
type ViolationKind string

// Violation kinds.
const (
	// KindInput: a required input is missing or has the wrong dtype.
	KindInput ViolationKind = "input"
	// KindBind: a concrete input shape contradicts the RDP symbolic
	// shape (rank mismatch, constant-dim mismatch, inconsistent symbol).
	KindBind ViolationKind = "bind"
	// KindFact: a bound symbol lies outside the strided interval the
	// model's input region gives it (range or alignment), or a region
	// symbol is unbound.
	KindFact ViolationKind = "fact"
	// KindShape: an RDP-derived intermediate shape evaluates to a
	// negative or undefined extent under the bound symbols.
	KindShape ViolationKind = "shape"
	// KindExecPlan: the static execution plan is not a valid schedule.
	KindExecPlan ViolationKind = "execplan"
	// KindMemPlan: no memory plan serves the request — no proof covers
	// its binding, or placing a tensor in the planned arena faulted.
	KindMemPlan ViolationKind = "memplan"
	// KindQuarantine: the serving layer's circuit breaker has
	// quarantined the model's plan; the run was forced onto the dynamic
	// tier without its memory plan.
	KindQuarantine ViolationKind = "quarantine"
	// KindNumeric: execution produced non-finite output values.
	KindNumeric ViolationKind = "numeric"
	// KindQuant: a quantized-weight run violated the model's
	// accuracy-drift contract (or produced non-finite outputs the f32
	// reference does not); the run fell back to the float32 weight tier.
	KindQuant ViolationKind = "quant"
)

// ContractError is a structured contract violation: which check failed,
// which symbol/fact it concerns, and the offending value.
type ContractError struct {
	Kind ViolationKind
	// Symbol and Fact are set for KindFact violations: the symbol and
	// its region interval ("H", "H∈[224,640]/32").
	Symbol string
	Fact   string
	// Value is the concrete value outside the interval (KindFact).
	Value int64
	// Detail carries the human-readable specifics.
	Detail string
	// Cause, when non-nil, is the underlying error.
	Cause error
}

// Error renders the violation.
func (e *ContractError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "guard: contract violation [%s]", e.Kind)
	detail := e.Detail
	switch {
	case e.Symbol != "" && detail == "unbound":
		// Nothing bound the symbol, so there is no value to quote.
		fmt.Fprintf(&b, ": symbol %s of %q is unbound", e.Symbol, e.Fact)
		detail = ""
	case e.Symbol != "":
		fmt.Fprintf(&b, ": symbol %s = %d violates %q", e.Symbol, e.Value, e.Fact)
	}
	if detail != "" {
		fmt.Fprintf(&b, ": %s", detail)
	}
	if e.Cause != nil {
		fmt.Fprintf(&b, ": %v", e.Cause)
	}
	return b.String()
}

// Unwrap exposes the cause.
func (e *ContractError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrContract) match any ContractError.
func (e *ContractError) Is(target error) bool { return target == ErrContract }

// Tier identifies which execution path produced a result. The zero
// value is the fully-planned fast path.
type Tier uint8

// Fallback tiers in increasing degradation order.
const (
	// TierPlanned: arena-planned execution under the static plans.
	TierPlanned Tier = iota
	// TierDynamic: per-tensor dynamic allocation in the planned order,
	// or in declaration order when the verifier refuted it (the
	// Nimble-style shape-function fallback).
	TierDynamic
	// TierFloat32: the quantized-weight run violated its accuracy-drift
	// contract and the request was re-served with the original float32
	// weights (dynamic allocation; the quantized plans are bypassed).
	TierFloat32
)

func (t Tier) String() string {
	switch t {
	case TierPlanned:
		return "planned"
	case TierDynamic:
		return "dynamic"
	case TierFloat32:
		return "float32"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// Degradation records one guarded-execution fallback: why the contract
// failed, and which tier the executor left and entered.
type Degradation struct {
	// Reason is the triggering error's message.
	Reason string
	// Kind is the violation kind when the trigger was a ContractError.
	Kind ViolationKind
	// From and To are the tiers before and after the fallback.
	From, To Tier
}

// String renders the degradation for logs and reports.
func (d Degradation) String() string {
	return fmt.Sprintf("%s→%s [%s] %s", d.From, d.To, d.Kind, d.Reason)
}
