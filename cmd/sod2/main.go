// Command sod2 is the reproduction's CLI: it compiles and runs the ten
// evaluation models through the full SoD² pipeline and exposes the
// intermediate artifacts (RDP analysis, fusion plan, execution plan).
//
// Usage:
//
//	sod2 models                         # list the ten evaluation models
//	sod2 analyze -model CodeBERT        # dump the RDP fixed point
//	sod2 compile -model YOLO-V6         # fusion/plan/MVC summary
//	sod2 run -model SkipNet -size 256   # one inference: measured + modeled report
//	sod2 serve -model CodeBERT -addr :8080   # HTTP serving front-end
//	sod2 serve -model all -store DIR    # every model, warm-booted from the store
//	sod2 sample -model CodeBERT         # wire-format request body for curl
//	sod2 lint -model YOLO-V6            # static verifier + lint diagnostics
//	sod2 lint -model all                # every model (CI runs this)
//	sod2 dot -model DGNet               # Graphviz rendering of the graph
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/frameworks"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/rdp"
	"repro/internal/workload"

	sod2 "repro"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sod2 <models|analyze|compile|run|serve|sample|lint|dot|export|classify> [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	modelName := fs.String("model", "CodeBERT", "model name (see `sod2 models`)")
	size := fs.Int64("size", 0, "dynamic input extent (0 = model minimum)")
	gate := fs.Float64("gate", 0.5, "control-flow gate activity in [0,1]")
	device := fs.String("device", "sd888-cpu", "device profile: prices run's modeled report; keys the serve artifact store: sd888-cpu|sd888-gpu|sd835-cpu|sd835-gpu")
	maxConc := fs.Int("max-concurrent", 0, "serve: admission concurrency cap (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "serve: bounded admission queue past the concurrency cap")
	deadline := fs.Duration("deadline", 0, "serve: per-request deadline (0 = none)")
	storeDir := fs.String("store", "", "serve: compiled-artifact store directory (warm-boots from saved artifacts; cold compiles save into it)")
	jsonOut := fs.Bool("json", false, "lint: emit machine-readable JSON reports instead of text")
	addr := fs.String("addr", "127.0.0.1:8080", "serve: listen address")
	qps := fs.Float64("qps", 0, "serve: per-client token-bucket rate (0 = no quota)")
	burst := fs.Int("burst", 0, "serve: per-client token-bucket burst (0 = derived from -qps)")
	drainGrace := fs.Duration("drain-grace", 2*time.Second, "serve: readiness-flip to listener-close grace period on SIGTERM")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "serve: bound on closing the listener and the sessions")
	seed := fs.Uint64("seed", 42, "sample: RNG seed for the generated inputs")
	_ = fs.Parse(os.Args[2:])

	if err := checkFlagValues(fs); err != nil {
		fmt.Fprintf(os.Stderr, "sod2: %v\n", err)
		usage()
	}

	switch cmd {
	case "models":
		listModels()
	case "analyze":
		withModel(*modelName, analyzeCmd)
	case "compile":
		withModel(*modelName, compileCmd)
	case "run":
		runCmd(*modelName, *size, float32(*gate), *device)
	case "serve":
		serveCmd(*modelName, *device, *addr, *storeDir,
			*maxConc, *maxQueue, *deadline, *qps, *burst, *drainGrace, *drainTimeout)
	case "sample":
		sampleCmd(*modelName, *size, *gate, *seed)
	case "lint":
		lintCmd(*modelName, *jsonOut)
	case "dot":
		withModel(*modelName, func(b *models.Builder) {
			fmt.Print(b.Build().DOT())
		})
	case "export":
		withModel(*modelName, func(b *models.Builder) {
			if err := b.Build().WriteJSON(os.Stdout); err != nil {
				fail(err)
			}
		})
	case "classify":
		classifyCmd()
	default:
		usage()
	}
}

// checkFlagValues rejects a negative or NaN value of any integer,
// duration or float flag. Every one of them is a count, a size, a cap, a
// time span or a rate, so such a value is a configuration error, never
// "unlimited" or "default", and must not reach a subcommand. -gate is a
// probability and must also be at most 1.
func checkFlagValues(fs *flag.FlagSet) (err error) {
	fs.VisitAll(func(f *flag.Flag) {
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case int64:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		case float64:
			if f.Name == "gate" && !(v >= 0 && v <= 1) && err == nil {
				err = fmt.Errorf("-gate (%v) must be in [0,1]", f.Value)
			}
			neg = !(v >= 0) // NaN compares false
		}
		if neg && err == nil {
			err = fmt.Errorf("-%s (%v) must be non-negative", f.Name, f.Value)
		}
	})
	return err
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sod2: %v\n", err)
	os.Exit(1)
}

func withModel(name string, f func(b *models.Builder)) {
	b, ok := models.Get(name)
	if !ok {
		fail(fmt.Errorf("unknown model %q", name))
	}
	f(b)
}

// classifyCmd prints the operator registry grouped by dynamism class —
// this repository's rendering of the paper's Table 2.
func classifyCmd() {
	byClass := map[ops.DynClass][]string{}
	for _, t := range ops.Types() {
		byClass[ops.ClassOf(t)] = append(byClass[ops.ClassOf(t)], t)
	}
	for c := ops.ISDO; c <= ops.EDO; c++ {
		fmt.Printf("%s (%d ops):\n", c, len(byClass[c]))
		for _, t := range byClass[c] {
			fmt.Printf("  %s\n", t)
		}
	}
}

// lintCmd runs the static plan verifier + graph lint over one model (or
// all of them) and prints the stable diagnostics report — the same text
// the golden-snapshot tests pin. -json switches to the machine-readable
// form (same findings, stable field order). Exits non-zero when any
// Error-severity diagnostic is found, so CI can gate on it.
func lintCmd(name string, jsonOut bool) {
	targets := models.All()
	if name != "all" {
		b, ok := models.Get(name)
		if !ok {
			fail(fmt.Errorf("unknown model %q", name))
		}
		targets = []*models.Builder{b}
	}
	errors := 0
	for i, b := range targets {
		if i > 0 && !jsonOut {
			fmt.Println()
		}
		_, rep, err := frameworks.CompileVerified(b)
		if err != nil {
			fail(err)
		}
		if jsonOut {
			s, jerr := rep.FormatJSON()
			if jerr != nil {
				fail(jerr)
			}
			fmt.Print(s)
		} else {
			fmt.Print(rep.Format())
		}
		errors += rep.Errors()
	}
	if errors > 0 {
		fmt.Fprintf(os.Stderr, "sod2 lint: %d error-severity diagnostics\n", errors)
		os.Exit(1)
	}
}

func listModels() {
	fmt.Printf("%-18s %-5s %-11s %s\n", "MODEL", "DYN", "INPUT", "SIZE RANGE")
	for _, b := range models.All() {
		fmt.Printf("%-18s %-5s %-11s %d–%d (step %d)\n",
			b.Name, b.Dynamism, b.Kind, b.MinSize, b.MaxSize, b.SizeStep)
	}
}

func analyzeCmd(b *models.Builder) {
	g := b.Build()
	res, err := rdp.Analyze(g, nil, rdp.Options{})
	if err != nil {
		fail(err)
	}
	fmt.Print(res.Dump())
	st := res.Statistics()
	fmt.Printf("\n%d tensors, %.1f%% resolved, %d iterations, %d backward-resolved\n",
		st.Total, st.ResolvedFraction()*100, res.Iterations, res.BackwardResolved)
	classes := make([]rdp.DimClass, 0, len(st.ByClass))
	for c := range st.ByClass {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] < classes[j] })
	for _, c := range classes {
		fmt.Printf("  %-12s %d\n", c, st.ByClass[c])
	}
}

func compileCmd(b *models.Builder) {
	c, err := frameworks.Compile(b)
	if err != nil {
		fail(err)
	}
	fmt.Printf("model %s: %d ops (%d incl. subgraphs)\n", b.Name, len(c.Graph.Nodes), c.Graph.NumOps())
	fmt.Printf("fusion (RDP):    %d groups, %d internal tensors eliminated\n",
		len(c.FusionRDP.Groups), len(c.FusionRDP.Internal))
	fmt.Printf("fusion (static): %d groups\n", len(c.FusionStatic().Groups))
	fmt.Printf("execution plan:  %d sub-graphs, est. peak %d bytes\n",
		len(c.ExecPlan.Subgraphs), c.ExecPlan.PeakBytes)
	for _, sg := range c.ExecPlan.Subgraphs {
		fmt.Printf("  sub-graph %2d: %2d ops, %-16s versions=%d method=%s\n",
			sg.ID, len(sg.Nodes), sg.Class, sg.Versions, sg.Method)
	}
	mp := c.MVCPlan()
	fmt.Printf("MVC: %d hotspot ops, %d total code versions\n", len(mp.Hotspots), mp.TotalVersions)
}

func runCmd(name string, size int64, gate float32, device string) {
	b, ok := models.Get(name)
	if !ok {
		fail(fmt.Errorf("unknown model %q", name))
	}
	if size == 0 {
		size = b.MinSize
	}
	dev, ok := sod2.DeviceByName(device)
	if !ok {
		fail(fmt.Errorf("unknown device %q", device))
	}
	c, err := sod2.Compile(b)
	if err != nil {
		fail(err)
	}
	s := workload.Fixed(b, 1, size, gate, 42)[0]
	out, rep, err := c.Infer(s.Inputs)
	if err != nil {
		fail(err)
	}
	fmt.Printf("model=%s size=%d gate=%.2f\n", name, size, gate)
	fmt.Printf("measured on this host: latency %.3f ms   peak memory %.2f MB   tier %s\n",
		rep.LatencyMS, float64(rep.PeakMemBytes)/(1<<20), rep.FallbackTier)
	for _, d := range rep.Degradations {
		fmt.Printf("  degraded: %s\n", d.String())
	}
	// The modeled report: the evaluation engine prices its own run.
	fc, err := frameworks.Compile(b)
	if err != nil {
		fail(err)
	}
	mrep, err := frameworks.NewSoD2(frameworks.FullSoD2()).Run(fc, s, dev)
	if err != nil {
		fail(err)
	}
	fmt.Printf("modeled on %s: latency %.3f ms   peak memory %.2f MB\n",
		dev.Name, mrep.LatencyMS, float64(mrep.PeakMemBytes)/(1<<20))
	for phase, ms := range mrep.Phases {
		fmt.Printf("  %-10s %.3f ms\n", phase, ms)
	}
	for name, t := range out {
		fmt.Printf("output %s: %v\n", name, t.Shape)
	}
}

// printBoot renders one model's store-boot outcome.
func printBoot(bi sod2.BootInfo) {
	mode := "cold compile"
	if bi.Warm {
		mode = "warm boot"
	}
	fmt.Printf("  %-18s %-12s %9.2f ms  (verify %7.2f ms)", bi.Model, mode, bi.BootMS, bi.VerifyMS)
	if bi.Saved {
		fmt.Printf("  [artifact saved]")
	}
	if bi.CorruptFallback != nil {
		fmt.Printf("  [corrupt artifact quarantined: %v]", bi.CorruptFallback)
	}
	fmt.Println()
}
