// Command benchmark is the repository's wall-clock benchmark: four
// workloads over the real request path, nine end-to-end metrics measured
// with tracing off, and a separate traced run that attributes time to
// the server / session / frameworks / exec / kernels / compile layers by
// timing calls into their public entry points. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the
// repository root is the contract later changes are held to.
//
//	go run ./benchmark -workload all                  # everything, human-readable
//	go run ./benchmark -workload seq-attn -trace 1    # one traced run
//	go run ./benchmark -workload all -out a.json      # keep a result file
//	go run ./benchmark -compare a.json b.json         # gate b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// environment is what every result file records about where it was made.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

// resultFile is what -out writes: the environment and one entry per run.
type resultFile struct {
	Env  environment      `json:"env"`
	Runs []workloadResult `json:"runs"`
}

func currentEnv(seed uint64, seconds int) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Seed: seed, Seconds: seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if env.Commit == "unknown" {
		// `go run` does not stamp the binary; ask git, which fails
		// harmlessly outside a repository.
		if rev, err := osexec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.Commit = strings.TrimSpace(string(rev))
		}
	}
	return env
}

// contractLine is the last line of standard output of a single-workload
// run, in the form the benchmark driver reads.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the command-line flags.
type options struct {
	workload     string
	seed         uint64
	seconds      int
	trace        int
	out          string
	traceOut     string
	compare      bool
	updateGolden bool
	goldenDir    string
	describe     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: seq-attn, cnn-gated, http-fleet, quant-int8, or all")
	flag.Uint64Var(&o.seed, "seed", goldenSeed, "generator seed: the only input to the input generator")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "run length the fixed lap counts are scaled to")
	flag.IntVar(&o.trace, "trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "write the result file (environment + every run) to this path")
	flag.StringVar(&o.traceOut, "trace-out", "", "traced run: write the spans to this path as JSON")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "regenerate the golden output summaries (seed 1) instead of checking them")
	flag.StringVar(&o.goldenDir, "golden-dir", "benchmark/golden", "where -update-golden writes")
	flag.BoolVar(&o.describe, "describe", false, "print the workload and metric tables as JSON and exit")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.describe:
		return printDescription()
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case o.seconds < 1:
		return fmt.Errorf("-seconds must be at least 1")
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace must be 0 or 1")
	case o.updateGolden && o.seed != goldenSeed:
		return fmt.Errorf("-update-golden regenerates the seed-%d summaries; got -seed %d", goldenSeed, o.seed)
	}
	if !o.updateGolden {
		o.goldenDir = ""
	}
	if o.workload == "all" {
		return runAll(o)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var res *workloadResult
	var err error
	if o.trace == 1 {
		res, err = runTraced(w, o.seed, o.traceOut)
	} else {
		res, err = runMeasured(w, o.seed, o.seconds, o.goldenDir)
	}
	if err != nil {
		return err
	}
	printResult(res)
	if o.out != "" {
		rf := resultFile{Env: currentEnv(o.seed, o.seconds), Runs: []workloadResult{*res}}
		if err := writeResultFile(o.out, rf); err != nil {
			return err
		}
	}
	line, err := json.Marshal(contractLine{Correct: res.Correct, Attempted: res.Requests.Attempted,
		Failed: res.Requests.Failed, Metrics: res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d requests failed", w.Name, res.Requests.Failed, res.Requests.Attempted)
	}
	return nil
}

// runAll runs every workload in a process of its own — twice, measured
// then traced — so peak_rss_mb, the heap and the caches of one workload
// never carry into the next.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "sod2-benchmark-runs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	file := resultFile{Env: currentEnv(o.seed, o.seconds)}
	failed := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.Name, trace))
			args := []string{"-workload", w.Name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-out", part}
			if o.updateGolden && trace == 0 {
				args = append(args, "-update-golden", "-golden-dir", o.goldenDir)
			}
			cmd := osexec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.Name, trace, err)
				failed++
			}
			var rf resultFile
			if raw, err := os.ReadFile(part); err == nil && json.Unmarshal(raw, &rf) == nil {
				file.Runs = append(file.Runs, rf.Runs...)
			}
		}
	}
	if o.out != "" {
		if err := writeResultFile(o.out, file); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}

func writeResultFile(path string, rf resultFile) error {
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printResult prints every metric of a run by name with its unit, the
// sample count behind the latency percentiles, and the request verdict.
func printResult(r *workloadResult) {
	kind := "measured run, tracing off"
	if r.Traced {
		kind = fmt.Sprintf("traced run, every layer called on %d of %d entries", r.TracedEntries, r.Pool)
	}
	fmt.Printf("== %s (%s): pool %d × %d lap(s), %d client(s) ==\n", r.Workload, kind, r.Pool, r.Laps, r.Clients)
	v := r.Requests
	fmt.Printf("requests: attempted %d  succeeded %d  failed %d  (transport %d, non-200 %d, inference %d, mismatched %d, wrong tier %d)\n",
		v.Attempted, v.Succeeded, v.Failed, v.Transport, v.Non200, v.InferErr, v.Mismatched, v.WrongTier)
	for _, ex := range v.Examples {
		fmt.Printf("  failure: %s\n", ex)
	}
	fmt.Printf("latency samples: %d (%d beyond p90)\n", r.Samples, samplesBeyond(r.Samples, 90))
	defs := endToEnd
	if r.Traced {
		defs = perLayerDefs()
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Printf("  %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	notes := make([]string, 0, len(r.Notes))
	for name := range r.Notes {
		notes = append(notes, name)
	}
	sort.Strings(notes)
	for _, name := range notes {
		fmt.Printf("  %-34s %16.6g %s   (note)\n", name, r.Notes[name].Value, r.Notes[name].Unit)
	}
}

// printDescription prints the benchmark's tables in machine-readable
// form: the workloads with their fixed lap and client counts, and every
// metric with its unit, direction, bound, layer and the end-to-end
// metric and workload it should move.
func printDescription() error {
	type workloadDesc struct {
		Name    string        `json:"name"`
		Why     string        `json:"why"`
		HTTP    bool          `json:"http"`
		Int8    bool          `json:"int8"`
		Clients int           `json:"clients"`
		Laps    int           `json:"laps"`
		Pool    int           `json:"pool"`
		Models  []modelDraw   `json:"models"`
		OffPlan []offPlanDraw `json:"off_plan,omitempty"`
	}
	desc := struct {
		DefaultSeed    uint64         `json:"default_seed"`
		NominalSeconds int            `json:"nominal_seconds"`
		Workloads      []workloadDesc `json:"workloads"`
		EndToEnd       []metricDef    `json:"end_to_end"`
		PerLayer       []metricDef    `json:"per_layer"`
	}{DefaultSeed: goldenSeed, NominalSeconds: nominalSeconds, EndToEnd: endToEnd, PerLayer: perLayerDefs()}
	for _, w := range workloads {
		desc.Workloads = append(desc.Workloads, workloadDesc{w.Name, w.Why, w.HTTP, w.Int8, w.Clients,
			w.Laps, w.poolSize(), w.Models, w.OffPlan})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(desc)
}
