package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is one reading of the process-wide resource counters the
// end-to-end metrics are deltas of.
type usage struct {
	cpu        time.Duration // getrusage user+sys
	mallocs    uint64        // MemStats.Mallocs
	allocBytes uint64        // MemStats.TotalAlloc
	gcCycles   uint32        // MemStats.NumGC
	gcPause    time.Duration // MemStats.PauseTotalNs
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{
		mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc,
		gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs),
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// sub returns the counters accumulated since an earlier reading.
func (u usage) sub(earlier usage) usage {
	return usage{
		cpu:        u.cpu - earlier.cpu,
		mallocs:    u.mallocs - earlier.mallocs,
		allocBytes: u.allocBytes - earlier.allocBytes,
		gcCycles:   u.gcCycles - earlier.gcCycles,
		gcPause:    u.gcPause - earlier.gcPause,
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status; 0 where the file or the field is missing.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
