package kernels

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// The CPU probe's AVX verdict matches the kernel's: Linux lists avx in
// /proc/cpuinfo only when the CPU has it and the OS saves its state.
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
		if want := slices.Contains(strings.Fields(flags), "avx"); hasAVX != want {
			t.Fatalf("probe reports AVX %v, /proc/cpuinfo flags say %v", hasAVX, want)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}
