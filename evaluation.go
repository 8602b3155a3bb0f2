package sod2

import "repro/internal/costmodel"

// The evaluation side of the facade. Neither an inference report nor a
// compile is priced on a Device; only the evaluation engines are.

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
