package frameworks

import (
	"encoding/json"

	"repro/internal/guard"
)

// wireDegradation is the stable serialization of one guarded-execution
// fallback record.
type wireDegradation struct {
	Reason   string  `json:"reason"`
	Kind     string  `json:"kind,omitempty"`
	From     string  `json:"from"`
	To       string  `json:"to"`
	ReplanMS float64 `json:"replan_ms,omitempty"`
}

// wireReport pins Report's JSON schema: the exact field set, names, and
// order shared by HTTP infer responses, the streaming `done` event, and
// /statsz. Tiers serialize as their string names, phases as a name→ms
// map (encoding/json emits map keys sorted, so the bytes are stable),
// and zero-valued optional fields are omitted. The golden test in
// reportjson_test.go fails on any drift — changing this schema is a
// wire-protocol change, not a refactor.
type wireReport struct {
	LatencyMS       float64            `json:"latency_ms"`
	PeakMemBytes    int64              `json:"peak_mem_bytes"`
	Phases          map[string]float64 `json:"phases,omitempty"`
	Tier            string             `json:"tier"`
	Degradations    []wireDegradation  `json:"degradations,omitempty"`
	RegionCacheHit  bool               `json:"region_cache_hit"`
	Wavefronts      int                `json:"wavefronts,omitempty"`
	ParallelWorkers int                `json:"parallel_workers,omitempty"`
}

// MarshalJSON serializes the report in the stable wire schema above.
func (r Report) MarshalJSON() ([]byte, error) {
	w := wireReport{
		LatencyMS:       r.LatencyMS,
		PeakMemBytes:    r.PeakMemBytes,
		Phases:          r.Phases,
		Tier:            r.FallbackTier.String(),
		RegionCacheHit:  r.RegionCacheHit,
		Wavefronts:      r.Wavefronts,
		ParallelWorkers: r.ParallelWorkers,
	}
	for _, d := range r.Degradations {
		w.Degradations = append(w.Degradations, wireDegradation{
			Reason:   d.Reason,
			Kind:     string(d.Kind),
			From:     d.From.String(),
			To:       d.To.String(),
			ReplanMS: d.ReplanMS,
		})
	}
	return json.Marshal(w)
}

// UnmarshalJSON accepts the wire schema back into a Report, so clients
// (and the HTTP serving tests) can round-trip reports. Unknown tier or
// kind names are kept only where they are representable; the round trip
// is exact for every report this repository produces.
func (r *Report) UnmarshalJSON(data []byte) error {
	var w wireReport
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Report{
		LatencyMS:       w.LatencyMS,
		PeakMemBytes:    w.PeakMemBytes,
		Phases:          w.Phases,
		FallbackTier:    tierByName(w.Tier),
		RegionCacheHit:  w.RegionCacheHit,
		Wavefronts:      w.Wavefronts,
		ParallelWorkers: w.ParallelWorkers,
	}
	for _, d := range w.Degradations {
		r.Degradations = append(r.Degradations, guard.Degradation{
			Reason:   d.Reason,
			Kind:     guard.ViolationKind(d.Kind),
			From:     tierByName(d.From),
			To:       tierByName(d.To),
			ReplanMS: d.ReplanMS,
		})
	}
	return nil
}

// tierByName maps a tier's wire name back to its value (planned when
// unrecognized — the zero tier).
func tierByName(name string) guard.Tier {
	switch name {
	case guard.TierDynamic.String():
		return guard.TierDynamic
	case guard.TierReplan.String():
		return guard.TierReplan
	}
	return guard.TierPlanned
}
