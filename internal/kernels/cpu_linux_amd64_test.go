package kernels

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// The CPU probe's verdicts match the kernels': Linux lists avx, avx2,
// fma and avx512f in /proc/cpuinfo only when the CPU has them and the OS
// saves their state.
func TestCPUProbeMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip("no /proc/cpuinfo:", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		fields := strings.Fields(flags)
		for _, f := range []struct {
			flag  string
			probe bool
		}{{"avx", hasAVX}, {"avx2", hasAVX2}, {"fma", hasFMA}, {"avx512f", hasAVX512}} {
			if want := slices.Contains(fields, f.flag); f.probe != want {
				t.Errorf("probe reports %s %v, /proc/cpuinfo flags say %v", f.flag, f.probe, want)
			}
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
