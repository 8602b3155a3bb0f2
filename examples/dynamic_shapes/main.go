// Dynamic shapes: run CodeBERT over a stream of inputs whose sequence
// lengths change on every inference, comparing SoD² against the MNN
// re-initialization policy (the paper's §2 motivation). SoD² compiles
// once — the RDP analysis resolves every intermediate shape in terms of
// the symbolic length — while the static-framework policy re-initializes
// whenever the shape changes.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/costmodel"
	"repro/internal/frameworks"
	"repro/internal/workload"

	sod2 "repro"
)

func main() {
	b, err := sod2.BuildModel("CodeBERT")
	if err != nil {
		log.Fatal(err)
	}
	c, err := frameworks.Compile(b)
	if err != nil {
		log.Fatal(err)
	}

	dev := costmodel.SD888CPU
	sodEng := frameworks.NewSoD2(frameworks.FullSoD2())
	// The MNN policy is an evaluation engine: it prices the trace of its
	// own executor policy (every branch, declaration order).
	mnnEng := bench.NewMNNWithReinit()
	mnnPolicy := mnnEng.Policy()

	fmt.Printf("%8s | %14s | %14s\n", "seq len", "SoD2 (ms)", "MNN+reinit (ms)")
	samples := workload.Samples(b, 8, 2024)
	var sodTotal, mnnTotal float64
	for _, s := range samples {
		rs, err := sodEng.Run(c, s, dev)
		if err != nil {
			log.Fatal(err)
		}
		res, err := c.Execute(s, mnnPolicy.AllBranches, mnnPolicy.Order)
		if err != nil {
			log.Fatal(err)
		}
		rm := mnnEng.Price(c, s, res.Trace, dev)
		fmt.Printf("%8d | %14.3f | %14.3f\n", s.Size, rs.LatencyMS, rm.LatencyMS)
		sodTotal += rs.LatencyMS
		mnnTotal += rm.LatencyMS
	}
	fmt.Printf("\ncontinuously-changing shapes: SoD2 %.2fx faster end-to-end\n", mnnTotal/sodTotal)

	// Show what makes this possible: the analysis result for the
	// attention block's dynamically reshaped tensor.
	st := c.RDPResult.Statistics()
	fmt.Printf("RDP resolved %.0f%% of %d tensors without executing anything\n",
		st.ResolvedFraction()*100, st.Total)
}
