package sod2

import (
	"repro/internal/costmodel"
	"repro/internal/frameworks"
)

// The evaluation side of the facade. No inference report is priced on a
// Device; a compile scores its schedule against one (SchedConfig.Device).

// Device is an analytic device profile (SD888/SD835, CPU/GPU).
type Device = costmodel.Device

// Device profiles used throughout the evaluation.
var (
	SD888CPU = costmodel.SD888CPU
	SD888GPU = costmodel.SD888GPU
	SD835CPU = costmodel.SD835CPU
	SD835GPU = costmodel.SD835GPU
)

// DeviceByName resolves a cost-model device profile by its name
// ("sd888-cpu", "sd888-gpu", "sd835-cpu", "sd835-gpu").
func DeviceByName(name string) (Device, bool) { return costmodel.DeviceByName(name) }

// Engines returns the five evaluation engines keyed by name.
func Engines() map[string]frameworks.Engine {
	return map[string]frameworks.Engine{
		"SoD2":   frameworks.NewSoD2(frameworks.FullSoD2()),
		"ORT":    frameworks.NewORT(),
		"MNN":    frameworks.NewMNN(),
		"TVM-N":  frameworks.NewTVMN(),
		"TFLite": frameworks.NewTFLite(0),
	}
}
