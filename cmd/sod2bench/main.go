// Command sod2bench regenerates the paper's evaluation tables and
// figures (Tables 1, 5–7; Figures 5–13; the §4.4.1 memory-plan
// ablation). Absolute numbers come from the analytic device model over
// real executed traces; the shapes of the results are the reproduction
// target (see EXPERIMENTS.md).
//
// Usage:
//
//	sod2bench -exp all              # everything (paper order)
//	sod2bench -exp table5 -samples 12
//	sod2bench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (or 'all')")
	samples := flag.Int("samples", 6, "input samples per model (paper uses 50)")
	seed := flag.Uint64("seed", 20240427, "workload RNG seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	quantSnap := flag.String("quant-snapshot", "", "write the quantized-serving JSON snapshot (BENCH_quant.json) to this file and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.Experiments(), "\n"))
		return
	}
	s := bench.NewSuite(bench.Options{Samples: *samples, Seed: *seed, Out: os.Stdout})
	if *quantSnap != "" {
		writeSnapshot(*quantSnap, s.WriteQuantSnapshot)
		return
	}
	if err := s.Run(*exp); err != nil {
		fmt.Fprintf(os.Stderr, "sod2bench: %v\n", err)
		os.Exit(1)
	}
}

// writeSnapshot creates path and streams one suite snapshot into it.
func writeSnapshot(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sod2bench: %v\n", err)
		os.Exit(1)
	}
}
