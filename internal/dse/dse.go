// Package dse performs the design-space exploration of Section V-A: given a
// model, a cluster, and a global batch, it enumerates every valid
// (t, d, p, m)-way 3D-parallel plan, simulates each with vTrain, and ranks
// the candidates by iteration time, GPU utilization, or end-to-end training
// cost — the search that produced Fig. 10, Fig. 11, Table I, and Table II.
//
// Plans whose activations exceed device memory automatically retry with
// full activation recomputation (exactly what a practitioner would do);
// plans that still do not fit are excluded during enumeration, so every
// explored point is memory-feasible.
//
// A sweep's cost structure leans on the simulator's two cache levels: the
// plan-level report cache dedupes repeated (model, plan) configurations,
// and the shape-keyed structural cache lets the thousands of enumerated
// plans share a few dozen lowered task graphs — each point then pays only
// duration binding and replay, not graph construction. Simulator.CacheStats
// exposes both hit rates for sweep diagnostics.
package dse

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
)

// Space describes the sweep.
type Space struct {
	// TensorWidths are the tensor-parallel degrees to explore
	// (Fig. 10 uses 4, 8, 16; tmax = 16).
	TensorWidths []int
	// DataWidths are the data-parallel degrees (Fig. 10: up to 32).
	DataWidths []int
	// PipelineDepths are the pipeline degrees (Fig. 10: up to 105).
	PipelineDepths []int
	// MicroBatches are the per-replica micro-batch sizes.
	MicroBatches []int
	// GlobalBatch is the iteration batch in sequences.
	GlobalBatch int
	// GradientBuckets configures DP overlap for every candidate.
	GradientBuckets int
	// Schedule is the pipeline schedule for every candidate.
	Schedule parallel.Schedule
	// MaxGPUs, when positive, caps t*d*p.
	MaxGPUs int
	// ExactGPUs, when positive, requires t*d*p to match exactly (used
	// for the fixed-budget comparisons of Table II).
	ExactGPUs int
	// MaxMicroBatches, when positive, skips plans whose per-pipeline
	// micro-batch count exceeds the limit. Very large counts arise only
	// for tiny data-parallel widths, are essentially never optimal, and
	// dominate simulation cost; offline profile builders cap them.
	MaxMicroBatches int
}

// DefaultSpace mirrors the paper's MT-NLG sweep: tmax=16, dmax=32,
// pipeline over the divisors of the layer count up to pmax=L.
func DefaultSpace(m model.Config, globalBatch int) Space {
	var depths []int
	for p := 1; p <= m.Layers; p++ {
		if m.Layers%p == 0 {
			depths = append(depths, p)
		}
	}
	var data []int
	for d := 1; d <= 32; d++ {
		if globalBatch%d == 0 {
			data = append(data, d)
		}
	}
	return Space{
		TensorWidths:    []int{1, 2, 4, 8, 16},
		DataWidths:      data,
		PipelineDepths:  depths,
		MicroBatches:    []int{1, 2, 4, 8, 16},
		GlobalBatch:     globalBatch,
		GradientBuckets: 2,
	}
}

// ErrNoValidPlan is returned (wrapped) by ExploreFunc when the search space
// contains no plan that validates and fits memory on the simulator's
// cluster. Multi-cluster searches (internal/clusterdse) detect it with
// errors.Is to skip hardware candidates the model cannot run on at all.
var ErrNoValidPlan = errors.New("no valid plan in the search space")

// Point is one evaluated design point.
type Point struct {
	Plan   parallel.Plan
	Report core.Report
	// Feasible is false when the plan cannot fit device memory even
	// with recomputation (Report is zero) or fails validation.
	Feasible bool
	// Reason explains infeasibility.
	Reason string
}

// Enumerate lists the valid plans of the space for m on sim's cluster,
// choosing recomputation automatically where required for memory.
func (s Space) Enumerate(m model.Config, sim *core.Simulator) []parallel.Plan {
	cluster := sim.Cluster()
	gpu := cluster.Node.GPU
	var plans []parallel.Plan
	for _, t := range s.TensorWidths {
		for _, d := range s.DataWidths {
			for _, p := range s.PipelineDepths {
				gpus := t * d * p
				if s.MaxGPUs > 0 && gpus > s.MaxGPUs {
					continue
				}
				if s.ExactGPUs > 0 && gpus != s.ExactGPUs {
					continue
				}
				for _, mb := range s.MicroBatches {
					plan := parallel.Plan{
						Tensor: t, Data: d, Pipeline: p,
						MicroBatch:      mb,
						GlobalBatch:     s.GlobalBatch,
						Schedule:        s.Schedule,
						GradientBuckets: s.GradientBuckets,
					}
					if err := plan.Validate(m, cluster); err != nil {
						continue
					}
					if s.MaxMicroBatches > 0 && plan.MicroBatches() > s.MaxMicroBatches {
						continue
					}
					if !plan.FitsMemory(m, gpu) {
						plan.Recompute = true
						if !plan.FitsMemory(m, gpu) {
							continue // does not fit even with recomputation
						}
					}
					plans = append(plans, plan)
				}
			}
		}
	}
	return plans
}

// Better reports whether p should rank ahead of q: feasible before
// infeasible, then lower iteration time, with the (t, d, p, m) tuple as a
// deterministic tie-break so rankings are stable regardless of the order
// points were evaluated in. (Points produced by this package are always
// feasible — Enumerate excludes memory-infeasible plans — so the
// feasibility branch matters only for hand-built Points.)
func (p Point) Better(q Point) bool {
	if p.Feasible != q.Feasible {
		return p.Feasible
	}
	if p.Report.IterTime != q.Report.IterTime {
		return p.Report.IterTime < q.Report.IterTime
	}
	a, b := p.Plan, q.Plan
	switch {
	case a.Tensor != b.Tensor:
		return a.Tensor < b.Tensor
	case a.Data != b.Data:
		return a.Data < b.Data
	case a.Pipeline != b.Pipeline:
		return a.Pipeline < b.Pipeline
	default:
		return a.MicroBatch < b.MicroBatch
	}
}

// StreamGate is the streaming discipline shared by the sweep drivers (this
// package and clusterdse). It serializes point streaming and latches a
// sweep's first error:
// once fail records an error, publish refuses every subsequent emission, so
// callers never observe output after a failure — including output from
// batches that were already in flight on other workers when the error hit.
type StreamGate struct {
	mu     sync.Mutex
	failed bool
	err    error
}

// publish runs emit under the gate's lock, unless a failure has been
// recorded; it reports whether emit ran.
func (g *StreamGate) Publish(emit func()) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.failed {
		return false
	}
	emit()
	return true
}

// fail latches err as the sweep's error; only the first call wins.
func (g *StreamGate) Fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.failed {
		g.failed, g.err = true, err
	}
}

// stopped reports whether a failure has been latched.
func (g *StreamGate) Stopped() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failed
}

// firstErr returns the latched error, nil if none.
func (g *StreamGate) FirstErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// RunBatches evaluates a sweep's n shape batches: a pool of replay workers
// calls run(bi) once per batch, claiming batches in ascending order, while a
// shape-prefetch pool of the same size calls warm(bi) ahead of them. Each
// warm call drives one distinct structural shape through
// core.Simulator.EnsureStructure, so cold lowerings (and persistent-tier
// disk loads) proceed in parallel with the binding and replay of shapes
// that are already resident; the prefetcher skips batches a worker has
// already claimed. run reports its own failure through gate; once gate
// latches one, neither pool takes another batch. RunBatches returns when
// every goroutine has. It is the worker planner shared by this package and
// clusterdse.
//
// cacheSize is the capacity of the FIFO structural cache the sweep warms (0
// when it is disabled: nothing is warmed). Every shape the sweep inserts
// evicts the oldest entry once the cache is full, so a prefetcher running
// further ahead than the cache holds would evict shapes it warmed before
// their batch reads them, and a warm call running late would re-insert a
// shape already evicted; either way the shape is lowered twice. Both pools
// therefore take batches only within a window above the oldest batch that
// is unclaimed or still held by a run or warm call. The window is sized so
// that its inserts, plus those of batches handed out but not yet inserted
// (at most one per goroutine), fit in the cache.
//
// The window must never hold the replay pool below its size: a slow batch
// at the bottom of a window narrower than the pool would idle the other
// workers. On hosts so wide that a window of workers batches leaves no room
// for a prefetch pool in the cache, RunBatches therefore skips prefetch and
// lets the workers claim freely, as a sweep without a structural cache
// does; each run then inserts and reads its own shape at once.
func RunBatches(n, cacheSize int, gate *StreamGate, warm, run func(bi int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 0 {
		return
	}
	w := &batchWindow{n: n, lead: n, held: make([]int8, n), gate: gate}
	w.cond.L = &w.mu
	warmers := 0
	if lead := cacheSize - 2*workers + 1; lead >= workers {
		warmers, w.lead = workers, lead
	}
	var wg sync.WaitGroup
	for i := 0; i < workers+warmers; i++ {
		next, call := &w.claimed, run
		if i >= workers {
			next, call = &w.warmed, warm
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for bi := w.take(next); bi >= 0; bi = w.take(next) {
				call(bi)
				w.release(bi)
			}
		}()
	}
	wg.Wait()
}

// batchWindow hands out RunBatches' batches to its two pools, keeping every
// handed-out batch below low+lead.
type batchWindow struct {
	mu   sync.Mutex
	cond sync.Cond
	n    int
	lead int
	// claimed and warmed are the next batch the replay and prefetch pools
	// take.
	claimed, warmed int
	// held counts the run and warm calls in progress per batch; low is the
	// oldest batch that is unclaimed or held.
	held []int8
	low  int
	gate *StreamGate
}

// take returns the next batch of the pool whose cursor is next, waiting
// while it lies beyond the window, or -1 once the batches run out or the
// sweep has stopped.
func (w *batchWindow) take(next *int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.gate.Stopped() {
			return -1
		}
		*next = max(*next, w.claimed) // never warm a claimed batch
		if *next >= w.n {
			return -1
		}
		if bi := *next; bi < w.low+w.lead {
			*next++
			w.held[bi]++
			return bi
		}
		w.cond.Wait()
	}
}

// release ends a run or warm call on batch bi, advances the window, and
// wakes waiting takers — also after a failed run, so they observe the stop.
func (w *batchWindow) release(bi int) {
	w.mu.Lock()
	w.held[bi]--
	for w.low < w.claimed && w.held[w.low] == 0 {
		w.low++
	}
	w.mu.Unlock()
	w.cond.Broadcast()
}

// ExploreFunc simulates every plan of the space with a bounded worker pool
// and streams each evaluated Point to fn as it completes. Every streamed
// point is feasible (Enumerate excludes plans that cannot fit memory).
// Calls to fn are serialized (one at a time), so callers can rank
// incrementally — keep a running best, feed a top-k heap — without holding
// every point in memory. Completion order is nondeterministic; use
// Point.Better for deterministic ranking.
//
// Plans are grouped by structural shape (core.Simulator.PlanShape) and each
// group flushes through one SimulateBatch call, so every plan of a shape
// replays the shared lowered graph in columnar lockstep instead of
// one-at-a-time; the workers additionally share the simulator's caches, so
// repeated configurations across sweeps cost one simulation and concurrent
// first requests for a shape single-flight onto one lowering.
//
// On a simulation error the sweep stops and the error is returned; no
// point is streamed to fn after the failure, even from worker batches that
// were still in flight when it occurred.
func ExploreFunc(sim *core.Simulator, m model.Config, s Space, fn func(Point)) error {
	plans := s.Enumerate(m, sim)
	if len(plans) == 0 {
		return fmt.Errorf("dse: %s: %w", m.Name, ErrNoValidPlan)
	}
	// Group plan indices by structural shape, preserving enumeration order
	// within and across groups so the batch composition is deterministic.
	var (
		batches  [][]int
		shapeIdx = make(map[core.Shape]int)
	)
	for i, p := range plans {
		sh := sim.PlanShape(m, p)
		bi, ok := shapeIdx[sh]
		if !ok {
			bi = len(batches)
			shapeIdx[sh] = bi
			batches = append(batches, nil)
		}
		batches[bi] = append(batches[bi], i)
	}
	// Shape-prefetch planner: the distinct shapes of the space are known up
	// front, so RunBatches warms the structural cache ahead of the workers
	// binding and replaying whatever is already resident — cold lowering
	// (or disk loading) overlaps replay instead of serializing inside
	// whichever worker first misses. EnsureStructure shares the cache's
	// single-flight entries, so the two pools never lower one shape twice.
	var gate StreamGate
	RunBatches(len(batches), sim.StructCacheSize(), &gate, func(bi int) {
		sim.EnsureStructure(m, plans[batches[bi][0]])
	}, func(bi int) {
		idx := batches[bi]
		group := make([]parallel.Plan, len(idx))
		for j, i := range idx {
			group[j] = plans[i]
		}
		reps, err := sim.SimulateBatch(m, group)
		if err != nil {
			// SimulateBatch attributes failures to a plan; unwrap so the
			// sweep error reads exactly like the sequential path's.
			plan := group[0]
			var pe *core.PlanError
			if errors.As(err, &pe) {
				plan, err = pe.Plan, pe.Err
			}
			gate.Fail(fmt.Errorf("dse: %s: %w", plan, err))
			return
		}
		gate.Publish(func() {
			for j := range idx {
				fn(Point{Plan: group[j], Report: reps[j], Feasible: true})
			}
		})
	})
	return gate.FirstErr()
}

// Explore simulates every plan of the space in parallel and returns the
// evaluated points sorted fastest-first (see Point.Better).
func Explore(sim *core.Simulator, m model.Config, s Space) ([]Point, error) {
	points := make([]Point, 0, 64)
	if err := ExploreFunc(sim, m, s, func(p Point) {
		points = append(points, p)
	}); err != nil {
		return nil, err
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Better(points[j]) })
	return points, nil
}

// ExploreBest streams the sweep and returns only the best-ranked point
// (per Point.Better), for callers that need one winner from a large space
// without holding every point in memory. ok is false when no point was
// evaluated or an error occurred.
func ExploreBest(sim *core.Simulator, m model.Config, s Space) (best Point, ok bool, err error) {
	err = ExploreFunc(sim, m, s, func(p Point) {
		if !ok || p.Better(best) {
			best, ok = p, true
		}
	})
	if err != nil {
		return Point{}, false, err
	}
	return best, ok, nil
}

// Fastest returns the feasible point with the lowest iteration time.
func Fastest(points []Point) (Point, bool) {
	for _, p := range points {
		if p.Feasible {
			return p, true
		}
	}
	return Point{}, false
}

// Cheapest returns the feasible point minimizing end-to-end training cost
// for totalTokens, pricing each plan's GPU count at the cluster rate.
func Cheapest(sim *core.Simulator, points []Point, totalTokens uint64) (Point, cost.Training, bool) {
	return CheapestOn(sim.Cluster(), points, totalTokens)
}

// CheapestOn is Cheapest for callers holding only the cluster description
// rather than a simulator — the serving layer's thin CLI clients rank
// streamed points against the cluster their sweep resolved to.
func CheapestOn(c hw.Cluster, points []Point, totalTokens uint64) (Point, cost.Training, bool) {
	var (
		best   Point
		bestTr cost.Training
		found  bool
	)
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		tr := cost.Train(p.Report.Model, p.Plan.GlobalBatch, p.Report.IterTime, p.Plan.GPUs(), totalTokens, c)
		if !found || tr.TotalDollars < bestTr.TotalDollars {
			best, bestTr, found = p, tr, true
		}
	}
	return best, bestTr, found
}

// CheapestWithin returns the cheapest feasible point whose end-to-end days
// do not exceed maxDays — the "balance training time and cost" objective of
// case study 1.
func CheapestWithin(sim *core.Simulator, points []Point, totalTokens uint64, maxDays float64) (Point, cost.Training, bool) {
	var (
		best   Point
		bestTr cost.Training
		found  bool
	)
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		tr := cost.Train(p.Report.Model, p.Plan.GlobalBatch, p.Report.IterTime, p.Plan.GPUs(), totalTokens, sim.Cluster())
		if tr.Days > maxDays {
			continue
		}
		if !found || tr.TotalDollars < bestTr.TotalDollars {
			best, bestTr, found = p, tr, true
		}
	}
	return best, bestTr, found
}

// ParetoFront returns the points not dominated in (iteration time, GPU
// count): no other feasible point is both faster and smaller — the frontier
// a practitioner inspects in Fig. 11.
func ParetoFront(points []Point) []Point {
	var front []Point
	for _, p := range points {
		if !p.Feasible {
			continue
		}
		dominated := false
		for _, q := range points {
			if !q.Feasible {
				continue
			}
			if q.Report.IterTime < p.Report.IterTime && q.Plan.GPUs() <= p.Plan.GPUs() ||
				q.Report.IterTime <= p.Report.IterTime && q.Plan.GPUs() < p.Plan.GPUs() {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	return front
}
