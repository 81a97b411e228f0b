package main

import (
	"errors"
	"fmt"

	"vtrain/internal/clusterdse"
	"vtrain/internal/comm"
	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
	"vtrain/internal/resilience"
	"vtrain/internal/taskgraph"
)

// maxLanes is the drivers' batch width cap (core's maxBatchWidth): shape
// groups replay in chunks of at most this many duration tables.
const maxLanes = 16

// replica re-does a driver's work serially from public calls, in the
// grouping the drivers use, so the benchmark can time each layer call
// itself. Its results must equal the driver's bit for bit.
type replica struct {
	rec *recorder
	// structs mirrors the simulators' shape-keyed structural caches; the
	// pool field of the key names whose cache a graph lives in.
	structs map[structKey]*taskgraph.Graph
	// reports mirrors the plan-level report caches (IterTime only).
	reports map[reportKey]float64
	// profs are the profilers the bindings consulted.
	profs map[*profiler.Profiler]bool
	cnt   counters
}

type structKey struct {
	pool  any
	shape core.Shape
}

type reportKey struct {
	pool any
	m    model.Config
	plan parallel.Plan
}

// counters are the work counts recorded beside the spans.
type counters struct {
	lowerings, loweredTasks  int
	structHits, structMisses int
	reportHits, reportMisses int
	tables, contTables       int
	replays, lanes           int
	taskLanes                int64
	priced                   int
}

func newReplica(rec *recorder) *replica {
	return &replica{
		rec:     rec,
		structs: make(map[structKey]*taskgraph.Graph),
		reports: make(map[reportKey]float64),
		profs:   make(map[*profiler.Profiler]bool),
	}
}

// lane is one plan of a shape group, with everything its binding needs.
type lane struct {
	prof       *profiler.Profiler
	cm         taskgraph.CommTimer
	cl         hw.Cluster
	plan       parallel.Plan
	contention bool
	// pool names the report cache serving the plan; nil means none.
	pool any
	// price turns the replayed iteration time into the point's economics.
	price func(iter float64)
}

// structure returns the graph of (m, plan)'s shape in pool's structural
// cache, building and lowering it at fidelity fid on a miss. lookups is how
// many plans asked for it, as the simulator counts them.
func (r *replica) structure(key structKey, fid taskgraph.Fidelity, m model.Config, plan parallel.Plan, cl hw.Cluster, prof *profiler.Profiler, lookups int) (*taskgraph.Graph, error) {
	if g, ok := r.structs[key]; ok {
		r.cnt.structHits += lookups
		return g, nil
	}
	r.cnt.structMisses++
	r.cnt.structHits += lookups - 1
	sp := r.rec.begin("opgraph.build")
	og, err := opgraph.Build(m, plan, cl)
	r.rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = r.rec.begin("taskgraph.lower")
	g := taskgraph.Lower(og, prof, fid)
	og.Recycle()
	r.rec.end(sp)
	r.cnt.lowerings++
	r.cnt.loweredTasks += g.NumTasks()
	r.structs[key] = g
	return g, nil
}

// batch mirrors core.SimulateBatchAcross for one shape group: report-cache
// pass, one structural lookup per pending plan, then binding and batched
// replay in chunks of maxLanes. It returns each lane's iteration time.
func (r *replica) batch(key structKey, fid taskgraph.Fidelity, m model.Config, lanes []lane) ([]float64, error) {
	iters := make([]float64, len(lanes))
	var pending []int
	for i, ln := range lanes {
		if ln.pool != nil {
			if it, ok := r.reports[reportKey{ln.pool, m, ln.plan}]; ok {
				r.cnt.reportHits++
				iters[i] = it
				ln.price(it)
				continue
			}
			r.cnt.reportMisses++
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return iters, nil
	}
	first := lanes[pending[0]]
	g, err := r.structure(key, fid, m, first.plan, first.cl, first.prof, len(pending))
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(pending); lo += maxLanes {
		chunk := pending[lo:min(lo+maxLanes, len(pending))]
		tables := make([]*taskgraph.DurationTable, len(chunk))
		var cts []*taskgraph.ContentionTable
		for j, i := range chunk {
			ln := lanes[i]
			r.profs[ln.prof] = true
			sp := r.rec.begin("taskgraph.bind")
			tables[j] = g.Bind(ln.prof, ln.cm, ln.plan, ln.cl)
			r.rec.end(sp)
			r.cnt.tables++
			if ln.contention {
				if cts == nil {
					cts = make([]*taskgraph.ContentionTable, len(chunk))
				}
				sp = r.rec.begin("taskgraph.bind_contention")
				cts[j] = g.BindContention(ln.plan, ln.cl, tables[j])
				r.rec.end(sp)
				r.cnt.contTables++
			}
		}
		sp := r.rec.begin("taskgraph.replay")
		res, err := g.ReplayBatchContended(tables, cts)
		r.rec.end(sp)
		for _, t := range tables {
			t.Release()
		}
		if err != nil {
			return nil, err
		}
		r.cnt.replays++
		r.cnt.lanes += len(chunk)
		r.cnt.taskLanes += int64(g.NumTasks()) * int64(len(chunk))
		for j, i := range chunk {
			ln := lanes[i]
			iters[i] = res[j].IterTime
			if ln.pool != nil {
				r.reports[reportKey{ln.pool, m, ln.plan}] = iters[i]
			}
			ln.price(iters[i])
		}
	}
	return iters, nil
}

// profilerStats sums the operator-table hits and misses of every profiler
// the replica's bindings consulted.
func (r *replica) profilerStats() (hits, misses int) {
	for p := range r.profs {
		m, h := p.CacheStats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

func (c *counters) add(o counters) {
	c.lowerings += o.lowerings
	c.loweredTasks += o.loweredTasks
	c.structHits += o.structHits
	c.structMisses += o.structMisses
	c.reportHits += o.reportHits
	c.reportMisses += o.reportMisses
	c.tables += o.tables
	c.contTables += o.contTables
	c.replays += o.replays
	c.lanes += o.lanes
	c.taskLanes += o.taskLanes
	c.priced += o.priced
}

// priceFn is the pricing span: utilization (report assembly), plus the
// training-run cost and its failure adjustment when the caller prices runs.
func (r *replica) priceFn(m model.Config, plan parallel.Plan, cl hw.Cluster, tokens uint64, res *resilience.Model) func(float64) {
	return func(iter float64) {
		sp := r.rec.begin("cost.price")
		cost.Utilization(m, plan.GlobalBatch, iter, plan.GPUs(), cl.Node.GPU)
		if tokens > 0 {
			tr := cost.Train(m, plan.GlobalBatch, iter, plan.GPUs(), tokens, cl)
			if res != nil {
				cost.ApplyResilience(tr, *res)
			}
		}
		r.rec.end(sp)
		r.cnt.priced++
	}
}

// point is one replayed design point, keyed like the drivers' points.
type point struct {
	key  pointKey
	iter float64
}

type pointKey struct {
	offering string
	nodes    int
	plan     parallel.Plan
}

// dseSweep mirrors dse.ExploreFunc on sim, whose fidelity is fid:
// enumerate, group by PlanShape in enumeration order, and simulate each
// group. pool names sim's report cache (nil when it is disabled); tokens > 0
// prices each point.
func (r *replica) dseSweep(sim *core.Simulator, fid taskgraph.Fidelity, pool any, m model.Config, s dse.Space, contention bool, tokens uint64) ([]point, error) {
	root := r.rec.begin("dse.sweep")
	defer r.rec.end(root)
	cl := sim.Cluster()
	sp := r.rec.begin("dse.enumerate")
	plans := s.Enumerate(m, sim)
	r.rec.end(sp)
	if len(plans) == 0 {
		return nil, fmt.Errorf("dse: %s: %w", m.Name, dse.ErrNoValidPlan)
	}
	var (
		groups [][]int
		shapes []core.Shape
		idx    = make(map[core.Shape]int)
	)
	for i, p := range plans {
		sh := sim.PlanShape(m, p)
		gi, ok := idx[sh]
		if !ok {
			gi = len(groups)
			idx[sh] = gi
			groups = append(groups, nil)
			shapes = append(shapes, sh)
		}
		groups[gi] = append(groups[gi], i)
	}
	cm := comm.NewModel(cl)
	var out []point
	for gi, g := range groups {
		lanes := make([]lane, len(g))
		for j, i := range g {
			lanes[j] = lane{prof: sim.Profiler(), cm: cm, cl: cl, plan: plans[i], contention: contention, pool: pool,
				price: r.priceFn(m, plans[i], cl, tokens, nil)}
		}
		iters, err := r.batch(structKey{sim, shapes[gi]}, fid, m, lanes)
		if err != nil {
			return nil, err
		}
		for j, i := range g {
			out = append(out, point{key: pointKey{plan: plans[i]}, iter: iters[j]})
		}
	}
	return out, nil
}

// clusterSweep mirrors clusterdse.ExploreFunc: derive one sibling per
// candidate from root (fidelity fid), enumerate each candidate's plans,
// group every (candidate, plan) pair by shape across candidates, and
// simulate each group with per-lane bindings.
func (r *replica) clusterSweep(root *core.Simulator, fid taskgraph.Fidelity, m model.Config, s clusterdse.Space) ([]point, error) {
	top := r.rec.begin("clusterdse.sweep")
	defer r.rec.end(top)
	type entry struct {
		sim  *core.Simulator
		cm   taskgraph.CommTimer
		cand clusterdse.Candidate
		res  *resilience.Model
		plan parallel.Plan
	}
	var entries []entry
	for _, off := range s.Offerings {
		if err := off.Validate(); err != nil {
			return nil, err
		}
		parent := root
		for _, nodes := range s.NodeCounts {
			cand := clusterdse.Candidate{Offering: off, Nodes: nodes}
			cl := cand.Cluster()
			var res *resilience.Model
			if s.Resilience != nil {
				mod, err := resilience.For(m, cl, cl.TotalGPUs(), *s.Resilience)
				if errors.Is(err, resilience.ErrUnreliable) {
					continue
				}
				if err != nil {
					return nil, err
				}
				res = &mod
			}
			sp := r.rec.begin("core.for_cluster")
			sib, err := parent.ForCluster(cl, core.WithContention(s.Contention))
			cm := comm.NewModel(cl)
			r.rec.end(sp)
			if err != nil {
				return nil, err
			}
			parent = sib
			ps := s.Plans
			ps.MaxGPUs, ps.ExactGPUs = 0, cl.TotalGPUs()
			sp = r.rec.begin("dse.enumerate")
			plans := ps.Enumerate(m, sib)
			r.rec.end(sp)
			for _, p := range plans {
				entries = append(entries, entry{sim: sib, cm: cm, cand: cand, res: res, plan: p})
			}
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("clusterdse: no feasible configuration for %s: %w", m.Name, dse.ErrNoValidPlan)
	}
	var (
		groups [][]int
		shapes []core.Shape
		idx    = make(map[core.Shape]int)
	)
	for i, e := range entries {
		sh := e.sim.PlanShape(m, e.plan)
		gi, ok := idx[sh]
		if !ok {
			gi = len(groups)
			idx[sh] = gi
			groups = append(groups, nil)
			shapes = append(shapes, sh)
		}
		groups[gi] = append(groups[gi], i)
	}
	var out []point
	for gi, g := range groups {
		lanes := make([]lane, len(g))
		for j, i := range g {
			e := entries[i]
			cl := e.cand.Cluster()
			lanes[j] = lane{prof: e.sim.Profiler(), cm: e.cm, cl: cl, plan: e.plan, contention: s.Contention,
				price: r.priceFn(m, e.plan, cl, s.TotalTokens, e.res)}
		}
		iters, err := r.batch(structKey{root, shapes[gi]}, fid, m, lanes)
		if err != nil {
			return nil, err
		}
		for j, i := range g {
			e := entries[i]
			out = append(out, point{key: pointKey{e.cand.Offering.Name, e.cand.Nodes, e.plan}, iter: iters[j]})
		}
	}
	return out, nil
}
