package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"vtrain/internal/clusterdse"
	"vtrain/internal/core"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/taskgraph"
)

// Pinned output digests. contendedDigest is the fixture the repository's
// BenchmarkClusterSweepContention pins (computed by the pre-ledger
// append-and-scan contention implementation); the other two were captured
// from the drivers when this benchmark was written. A change meant only as
// a speed-up must leave all three untouched.
const (
	dseColdDigest   = "2383e64416ae15edaaedfb54475eddafb0af9e29498948f3a712cc0172ba7cbc"
	idealDigest     = "07fdc97fa23769b8ad97800edd73503cd8697550433798d3f3aa8c676aefb2df"
	contendedDigest = "be05f8452f7def91f3e9cb38e6e0a78a1d5481c1c7d061569f5abefa0fad1761"
)

// sweepSpec is one sweep workload: a fixed space, run cold (fresh
// simulator, report cache off, operator fidelity) as a CLI user runs it.
type sweepSpec struct {
	name      string
	m         model.Config
	cluster   hw.Cluster // dse-cold's fixed cluster
	dse       dse.Space
	joint     *clusterdse.Space // nil for the single-cluster sweep
	digest    string
	points    int
	lowerings uint64 // distinct shapes in the space
}

// dseColdSpace is BenchmarkDSESweep's 563-point (t, d, p, m) grid.
func dseColdSpace() dse.Space {
	return dse.Space{
		TensorWidths:    []int{1, 2, 4, 8, 16},
		DataWidths:      []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64},
		PipelineDepths:  []int{1, 2, 4, 6, 8, 12},
		MicroBatches:    []int{1, 2, 3, 4},
		GlobalBatch:     384,
		GradientBuckets: 2,
		MaxMicroBatches: 64,
	}
}

// jointSpace is BenchmarkClusterSweep's 1,068-point hardware x plan space:
// every catalog offering crossed with every interconnect tier, at four
// cluster sizes.
func jointSpace(contention bool) *clusterdse.Space {
	offs, err := clusterdse.SelectOfferings(nil, true)
	if err != nil {
		panic(err) // the built-in catalog always resolves
	}
	return &clusterdse.Space{
		Offerings:  offs,
		NodeCounts: []int{4, 8, 16, 32},
		Plans: dse.Space{
			TensorWidths:    []int{1, 2, 4, 8},
			DataWidths:      []int{1, 2, 4, 8, 16, 32, 64},
			PipelineDepths:  []int{1, 2, 4, 8},
			MicroBatches:    []int{1, 2, 4},
			GlobalBatch:     512,
			GradientBuckets: 2,
			MaxMicroBatches: 64,
		},
		TotalTokens: 300e9,
		Contention:  contention,
	}
}

func sweepSpecs() map[string]*sweepSpec {
	return map[string]*sweepSpec{
		"dse-cold": {name: "dse-cold", m: model.Megatron39_1B(), cluster: hw.PaperCluster(256), dse: dseColdSpace(),
			digest: dseColdDigest, points: 563, lowerings: 140},
		"cluster-ideal": {name: "cluster-ideal", m: model.Megatron18_4B(), joint: jointSpace(false),
			digest: idealDigest, points: 1068, lowerings: 38},
		"cluster-contended": {name: "cluster-contended", m: model.Megatron18_4B(), joint: jointSpace(true),
			digest: contendedDigest, points: 1068, lowerings: 38},
	}
}

// sweepResult is one driver sweep.
type sweepResult struct {
	wall      time.Duration
	alloc     uint64 // bytes allocated by the sweep
	digest    string
	iters     map[pointKey]float64
	lowerings uint64
	width     float64
	sim       *core.Simulator
}

// runDriver runs the workload's real driver once with a fresh simulator.
// onPoint is called as each point streams, with the time since the sweep
// started.
func (w *sweepSpec) runDriver(onPoint func(time.Duration)) (sweepResult, error) {
	opts := []core.Option{core.WithFidelity(taskgraph.OperatorLevel), core.WithCacheSize(0)}
	a0 := readMem().allocBytes
	start := time.Now()
	var (
		res sweepResult
		err error
	)
	if w.joint == nil {
		res.sim, err = core.New(w.cluster, opts...)
		if err != nil {
			return res, err
		}
		var pts []dse.Point
		err = dse.ExploreFunc(res.sim, w.m, w.dse, func(p dse.Point) {
			pts = append(pts, p)
			onPoint(time.Since(start))
		})
		sort.Slice(pts, func(i, j int) bool { return pts[i].Better(pts[j]) })
		res.wall = time.Since(start)
		res.alloc = readMem().allocBytes - a0
		res.digest, res.iters = dseDigest(pts)
	} else {
		res.sim, err = clusterdse.NewSimulator(*w.joint, opts...)
		if err != nil {
			return res, err
		}
		var pts []clusterdse.Point
		err = clusterdse.ExploreFunc(res.sim, w.m, *w.joint, func(p clusterdse.Point) {
			pts = append(pts, p)
			onPoint(time.Since(start))
		})
		sort.Slice(pts, func(i, j int) bool { return pts[i].Better(pts[j]) })
		res.wall = time.Since(start)
		res.alloc = readMem().allocBytes - a0
		res.digest, res.iters = clusterDigest(pts)
	}
	if err != nil {
		return res, err
	}
	st := res.sim.CacheStats()
	res.lowerings = st.Lowerings
	res.width = float64(st.BatchedPlans) / float64(max(st.BatchReplays, 1))
	return res, nil
}

// check compares a driver sweep's output with the pinned fixture. The
// driver's lowering count is work done, not output, and is not pinned: on
// dse-cold the space has more shapes (140) than the structural cache holds
// (128), so a shape the prefetcher warmed can be evicted before its batch
// runs and be lowered again, depending on scheduling.
func (w *sweepSpec) check(r sweepResult) error {
	if r.digest != w.digest {
		return fmt.Errorf("%s: output digest %s, want %s", w.name, r.digest, w.digest)
	}
	if len(r.iters) != w.points {
		return fmt.Errorf("%s: %d points, want %d", w.name, len(r.iters), w.points)
	}
	return nil
}

// runReplica runs the serial replica once; rec nil means spans off.
func (w *sweepSpec) runReplica(rec *recorder) (*replica, []point, error) {
	rep := newReplica(rec)
	rec.newOp()
	fid := taskgraph.OperatorLevel
	opts := []core.Option{core.WithFidelity(fid), core.WithCacheSize(0)}
	if w.joint == nil {
		sim, err := core.New(w.cluster, opts...)
		if err != nil {
			return nil, nil, err
		}
		pts, err := rep.dseSweep(sim, fid, nil, w.m, w.dse, false, 0)
		return rep, pts, err
	}
	root, err := clusterdse.NewSimulator(*w.joint, opts...)
	if err != nil {
		return nil, nil, err
	}
	pts, err := rep.clusterSweep(root, fid, w.m, *w.joint)
	return rep, pts, err
}

// checkReplica holds a replica to its driver sweep: the same points with
// bit-identical iteration times. The replica lowers each distinct shape
// exactly once, which must be the pinned count; the driver lowers at least
// that many (see check).
func (w *sweepSpec) checkReplica(rep *replica, pts []point, want sweepResult) error {
	if err := matchPoints(w.name, pts, want.iters); err != nil {
		return err
	}
	if uint64(rep.cnt.lowerings) != w.lowerings || want.lowerings < w.lowerings {
		return fmt.Errorf("%s: replica lowered %d graphs and the driver %d, want %d distinct shapes",
			w.name, rep.cnt.lowerings, want.lowerings, w.lowerings)
	}
	return nil
}

// matchPoints holds replayed points to the program's: the same keys with
// bit-identical iteration times.
func matchPoints(name string, pts []point, want map[pointKey]float64) error {
	if len(pts) != len(want) {
		return fmt.Errorf("%s replica: %d points, program %d", name, len(pts), len(want))
	}
	for _, p := range pts {
		it, ok := want[p.key]
		if !ok || bits(it) != bits(p.iter) {
			return fmt.Errorf("%s replica: point %v iteration time %v, program %v", name, p.key, p.iter, it)
		}
	}
	return nil
}

var bits = math.Float64bits

// clusterDigest is BenchmarkClusterSweepContention's bit-exact point
// formula: an order-sensitive SHA-256 over every ranked point's identity
// and derived floats. It also returns the points' iteration times by key.
func clusterDigest(points []clusterdse.Point) (string, map[pointKey]float64) {
	h := sha256.New()
	iters := make(map[pointKey]float64, len(points))
	for _, p := range points {
		fmt.Fprintf(h, "%s|%d|%v|%016x|%016x|%016x|%016x|%016x|%016x|%016x|%016x\n",
			p.Offering.Name, p.Nodes, p.Plan,
			bits(p.Report.IterTime), bits(p.Report.Utilization),
			bits(p.Report.HardwareFLOPs), bits(p.Report.ComputeSeconds),
			bits(p.Report.CommSeconds), bits(p.Report.BubbleFraction),
			bits(p.Training.TotalDollars), bits(p.Training.Days))
		iters[pointKey{p.Offering.Name, p.Nodes, p.Plan}] = p.Report.IterTime
	}
	return hex.EncodeToString(h.Sum(nil)), iters
}

// dseDigest is the same formula for single-cluster points, which carry no
// offering or training cost.
func dseDigest(points []dse.Point) (string, map[pointKey]float64) {
	h := sha256.New()
	iters := make(map[pointKey]float64, len(points))
	for _, p := range points {
		fmt.Fprintf(h, "%v|%016x|%016x|%016x|%016x|%016x|%016x\n",
			p.Plan, bits(p.Report.IterTime), bits(p.Report.Utilization),
			bits(p.Report.HardwareFLOPs), bits(p.Report.ComputeSeconds),
			bits(p.Report.CommSeconds), bits(p.Report.BubbleFraction))
		iters[pointKey{plan: p.Plan}] = p.Report.IterTime
	}
	return hex.EncodeToString(h.Sum(nil)), iters
}
