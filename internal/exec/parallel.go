// Wavefront parallel interpreter: runs the kernels of each statically
// planned wave concurrently on a persistent worker pool, then performs
// all bookkeeping sequentially in planned order at the wave barrier.
//
// Determinism argument (why parallel outputs are bit-identical to
// sequential execution):
//
//  1. Kernels are pure: they read their inputs and write freshly
//     allocated outputs; striped budgeted kernels write disjoint output
//     ranges with unchanged per-element arithmetic order.
//  2. Arena placement copies each output into its planned region. The
//     offsets come from a wave-widened memory plan
//     (memplan.WidenWaves + PeakFirst), whose disjointness proof covers
//     every pair of buffers live in the same wave — so concurrent
//     same-wave copies never touch a byte another wave member reads or
//     writes, for any interleaving. (HighWater is the one shared word;
//     it is a commutative max under a mutex.)
//  3. All observable bookkeeping — the values map, taint propagation,
//     trace events, liveness accounting, frees — happens sequentially
//     in planned order at the barrier, exactly as the sequential
//     interpreter would have done it.
//
// Error containment: a panic in any worker is converted to a typed
// *guard.OpError by the same recover boundary the sequential path uses;
// the wave is always drained before the error (first in planned order)
// is surfaced, so the pool never wedges and no goroutine leaks.
package exec

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/tensor"
)

// waveJob is one kernel execution dispatched to the worker pool.
type waveJob struct {
	n       *graph.Node
	in      []*tensor.Tensor
	threads int

	// Filled by the worker.
	out []*tensor.Tensor
	err error

	wg *sync.WaitGroup
}

// run computes the job's node. It never panics: runKernel contains
// kernel panics, and the outer recover is a second boundary for
// placement bugs, so the worker loop — and with it the pool — survives
// any job.
func (j *waveJob) run(ex *executor) {
	defer func() {
		if r := recover(); r != nil {
			j.out = nil
			j.err = &guard.OpError{Node: j.n.Name, Op: j.n.OpType,
				Cause: fmt.Errorf("%w: %v", guard.ErrPanic, r)}
		}
	}()
	if err := ex.checkCtx(j.n); err != nil {
		j.err = err
		return
	}
	j.out, j.err = ex.compute(j.n, j.in, j.threads)
}

// runWaves executes order wave by wave on a persistent worker pool.
// Flattening opts.Waves must reproduce order exactly; the executor
// verifies this rather than trusting the caller, since a mismatched
// partition would silently break the memory plan's step indexing.
func (ex *executor) runWaves(order []*graph.Node) error {
	waves := ex.opts.Waves
	idx := 0
	for _, wave := range waves {
		for _, n := range wave {
			if idx >= len(order) || order[idx] != n {
				return fmt.Errorf("exec: wave partition does not flatten to the execution order at step %d", idx)
			}
			idx++
		}
	}
	if idx != len(order) {
		return fmt.Errorf("exec: wave partition covers %d of %d steps", idx, len(order))
	}

	workers := ex.opts.Workers
	jobs := make(chan *waveJob)
	var pool sync.WaitGroup
	for w := 0; w < workers; w++ {
		pool.Add(1)
		go func() {
			defer pool.Done()
			for j := range jobs {
				j.run(ex)
				j.wg.Done()
			}
		}()
	}
	defer func() {
		close(jobs)
		pool.Wait()
	}()

	for _, wave := range waves {
		if err := ex.checkCtx(wave[0]); err != nil {
			return err
		}
		if len(wave) == 1 {
			// Solo wave (control flow, or clipped by the memory cap /
			// dependency structure): run inline with the whole worker
			// budget as intra-op threads.
			ex.soloThreads = workers
			err := ex.safeExec(wave[0])
			ex.soloThreads = 0
			if err != nil {
				return err
			}
			continue
		}
		if err := ex.runWave(wave, jobs, workers); err != nil {
			return err
		}
	}
	return nil
}

// runWave dispatches one multi-node wave and replays its bookkeeping
// sequentially in planned order after the barrier.
func (ex *executor) runWave(wave []*graph.Node, jobs chan<- *waveJob, workers int) error {
	threads := workers / len(wave)
	if threads < 1 {
		threads = 1
	}

	// Gather inputs sequentially before dispatch: reads of the values
	// map must not race with anything, and same-wave nodes never
	// consume same-wave outputs (antichain), so presence semantics are
	// identical to the sequential interpreter's.
	var wg sync.WaitGroup
	pending := make([]*waveJob, len(wave))
	for i, n := range wave {
		in, allPresent := ex.gatherInputs(n)
		if !allPresent {
			continue // dead path: bookkept as skipped at the barrier
		}
		pending[i] = &waveJob{n: n, in: in, threads: threads, wg: &wg}
	}
	wg.Add(len(wave)) // over-added for skipped slots; released below
	for _, j := range pending {
		if j == nil {
			wg.Done()
			continue
		}
		jobs <- j
	}
	wg.Wait() // barrier: the wave is always fully drained

	// Sequential bookkeeping in planned order — identical effects, in
	// identical order, to the sequential interpreter.
	for i, n := range wave {
		j := pending[i]
		if j == nil {
			ex.skip(n)
			continue
		}
		if j.err != nil {
			return j.err // first failure in planned order
		}
		if err := ex.commit(n, j.in, j.out); err != nil {
			return err
		}
	}
	return nil
}
