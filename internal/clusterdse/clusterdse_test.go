package clusterdse

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/resilience"
	"vtrain/internal/taskgraph"
)

func tinyModel() model.Config {
	return model.Config{Name: "cd-tiny", Hidden: 512, Layers: 4, SeqLen: 256, Heads: 8, Vocab: 8192}
}

// testSpace is a small joint sweep: the full catalog (4 offerings, 3 GPU generations) at
// two cluster sizes with a handful of plans per candidate.
func testSpace() Space {
	return Space{
		Offerings:  hw.Catalog(),
		NodeCounts: []int{1, 2},
		Plans: dse.Space{
			TensorWidths:    []int{1, 2},
			DataWidths:      []int{1, 2, 4},
			PipelineDepths:  []int{1, 2},
			MicroBatches:    []int{1},
			GlobalBatch:     8,
			GradientBuckets: 2,
		},
		TotalTokens: 10e9,
	}
}

func newTestSim(t *testing.T, s Space) *core.Simulator {
	t.Helper()
	sim, err := NewSimulator(s, core.WithFidelity(taskgraph.OperatorLevel))
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestJointSweepGolden pins the sweep's ranking contract: the returned
// order is exactly the Point.Better order, repeated sweeps (fresh simulator
// each time, nondeterministic worker completion inside) are byte-identical,
// and the points cover every hardware generation and cluster size.
func TestJointSweepGolden(t *testing.T) {
	m, s := tinyModel(), testSpace()

	run := func() []Point {
		points, err := Explore(newTestSim(t, s), m, s)
		if err != nil {
			t.Fatal(err)
		}
		return points
	}
	points := run()
	if len(points) == 0 {
		t.Fatal("empty sweep")
	}
	for i := 1; i < len(points); i++ {
		if points[i].Better(points[i-1]) {
			t.Fatalf("point %d ranks above its predecessor; sort does not follow Better", i)
		}
	}
	again := run()
	if !reflect.DeepEqual(points, again) {
		t.Error("repeated sweeps disagree; ranking is not deterministic")
	}

	offerings, sizes := map[string]bool{}, map[int]bool{}
	for _, p := range points {
		offerings[p.Offering.Name] = true
		sizes[p.Nodes] = true
		if p.Plan.GPUs() != p.GPUs() {
			t.Fatalf("plan %s uses %d GPUs on a %d-GPU cluster; candidates must be fully used",
				p.Plan, p.Plan.GPUs(), p.GPUs())
		}
		if p.Training.TotalDollars <= 0 || p.Training.Days <= 0 {
			t.Fatalf("non-positive economics: %+v", p.Training)
		}
		wantRate := float64(p.GPUs()) * p.Offering.DollarsPerGPUHour
		if p.Training.DollarsPerHour != wantRate {
			t.Fatalf("%s priced at $%g/h, want %g (catalog rate x GPUs)",
				p.Candidate, p.Training.DollarsPerHour, wantRate)
		}
	}
	if len(offerings) < 3 {
		t.Errorf("sweep covered %d GPU generations, want >= 3", len(offerings))
	}
	if len(sizes) != 2 {
		t.Errorf("sweep covered %d cluster sizes, want 2", len(sizes))
	}
}

// TestParetoFrontierGolden pins the frontier semantics: cost strictly
// ascending, days strictly descending, no frontier point dominated, every
// non-frontier point dominated by a frontier point, and the computation
// independent of input order.
func TestParetoFrontierGolden(t *testing.T) {
	m, s := tinyModel(), testSpace()
	points, err := Explore(newTestSim(t, s), m, s)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFrontier(points)
	if len(front) == 0 {
		t.Fatal("empty frontier from a non-empty sweep")
	}
	for i := 1; i < len(front); i++ {
		if front[i].Training.TotalDollars <= front[i-1].Training.TotalDollars {
			t.Errorf("frontier cost not strictly ascending at %d", i)
		}
		if front[i].Training.Days >= front[i-1].Training.Days {
			t.Errorf("frontier days not strictly descending at %d", i)
		}
	}
	dominated := func(p Point) bool {
		for _, q := range front {
			if q.Training.TotalDollars <= p.Training.TotalDollars && q.Training.Days <= p.Training.Days &&
				(q.Training.TotalDollars < p.Training.TotalDollars || q.Training.Days < p.Training.Days) {
				return true
			}
		}
		return false
	}
	onFront := func(p Point) bool {
		for _, q := range front {
			if q.Candidate == p.Candidate && q.Plan == p.Plan {
				return true
			}
		}
		return false
	}
	for _, p := range points {
		if !onFront(p) && !dominated(p) {
			t.Errorf("point %s ($%.0f, %.2fd) is neither on the frontier nor dominated",
				p.Candidate, p.Training.TotalDollars, p.Training.Days)
		}
	}
	// Input order must not matter.
	shuffled := append([]Point(nil), points...)
	sort.Slice(shuffled, func(i, j int) bool { return shuffled[j].Better(shuffled[i]) }) // reversed
	if !reflect.DeepEqual(ParetoFrontier(shuffled), front) {
		t.Error("frontier depends on input order")
	}
}

// TestCheapestWithinDeadline pins the deadline selection against a
// brute-force reference and covers the no-feasible-deadline path.
func TestCheapestWithinDeadline(t *testing.T) {
	m, s := tinyModel(), testSpace()
	points, err := Explore(newTestSim(t, s), m, s)
	if err != nil {
		t.Fatal(err)
	}
	// Use the median days as the deadline so both branches are exercised.
	days := make([]float64, len(points))
	for i, p := range points {
		days[i] = p.Training.Days
	}
	sort.Float64s(days)
	deadline := days[len(days)/2]

	best, ok := CheapestWithinDeadline(points, deadline)
	if !ok {
		t.Fatal("no point within the median deadline")
	}
	var ref Point
	refOK := false
	for _, p := range points {
		if p.Training.Days <= deadline && (!refOK || p.Better(ref)) {
			ref, refOK = p, true
		}
	}
	if best.Candidate != ref.Candidate || best.Plan != ref.Plan {
		t.Errorf("CheapestWithinDeadline = %s, brute force says %s", best.Candidate, ref.Candidate)
	}
	if best.Training.Days > deadline {
		t.Errorf("winner misses the deadline: %.2f > %.2f days", best.Training.Days, deadline)
	}
	// Input order must not change the winner (Better tie-breaks).
	reversed := append([]Point(nil), points...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	if again, _ := CheapestWithinDeadline(reversed, deadline); again.Candidate != best.Candidate || again.Plan != best.Plan {
		t.Error("deadline winner depends on input order")
	}
	if _, ok := CheapestWithinDeadline(points, days[0]/2); ok {
		t.Error("impossible deadline reported a winner")
	}
}

// TestBetterTieBreakStable pins the documented tie-break chain on
// hand-built points with identical economics.
func TestBetterTieBreakStable(t *testing.T) {
	mk := func(name string, nodes, tensor int) Point {
		p := Point{Candidate: Candidate{Offering: hw.Offering{Name: name}, Nodes: nodes}}
		p.Plan = parallel.Plan{Tensor: tensor, Data: 1, Pipeline: 1, MicroBatch: 1}
		p.Training.TotalDollars = 100
		p.Training.Days = 10
		return p
	}
	a, b := mk("a100", 2, 1), mk("h100", 2, 1)
	if !a.Better(b) || b.Better(a) {
		t.Error("offering-name tie-break not lexicographic and strict")
	}
	c, d := mk("a100", 2, 1), mk("a100", 4, 1)
	if !c.Better(d) {
		t.Error("node-count tie-break not ascending")
	}
	e, f := mk("a100", 2, 1), mk("a100", 2, 2)
	if !e.Better(f) {
		t.Error("plan-tuple tie-break not ascending")
	}
	cheaper := mk("z-worst-name", 8, 8)
	cheaper.Training.TotalDollars = 99
	if !cheaper.Better(a) {
		t.Error("cost must dominate every tie-break")
	}
}

// TestHardwareOnlySweepLowersOnce is the cache-invariant the subsystem is
// built on: one plan shape across every catalog cluster performs exactly
// one lowering, no matter how many hardware candidates are compared.
func TestHardwareOnlySweepLowersOnce(t *testing.T) {
	m := tinyModel()
	s := testSpace()
	s.NodeCounts = []int{1}
	s.Plans.TensorWidths = []int{2}
	s.Plans.DataWidths = []int{2}
	s.Plans.PipelineDepths = []int{2}

	sim := newTestSim(t, s)
	points, err := Explore(sim, m, s)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(s.Offerings); len(points) != want {
		t.Fatalf("hardware-only sweep yielded %d points, want %d (one per offering)", len(points), want)
	}
	st := sim.CacheStats()
	if st.StructMisses != 1 {
		t.Errorf("hardware-only sweep lowered %d graphs, want exactly 1", st.StructMisses)
	}
	if want := uint64(len(points) - 1); st.StructHits != want {
		t.Errorf("StructHits = %d, want %d", st.StructHits, want)
	}
}

// TestZeroFeasibleConfigs pins the error paths: a model no candidate can
// run, an empty space, and an unpriced space all fail loudly instead of
// returning an empty ranking.
func TestZeroFeasibleConfigs(t *testing.T) {
	s := testSpace()
	sim := newTestSim(t, s)

	// MT-NLG 530B cannot fit 8-16 GPUs even with recomputation: every
	// candidate is skipped, and the sweep must say so.
	_, err := Explore(sim, model.MTNLG530B(), s)
	if err == nil || !strings.Contains(err.Error(), "no feasible") {
		t.Errorf("oversized model: err = %v, want 'no feasible ...'", err)
	}

	empty := s
	empty.Offerings = nil
	if _, err := Explore(sim, tinyModel(), empty); err == nil {
		t.Error("empty offering list accepted")
	}
	unpriced := s
	unpriced.TotalTokens = 0
	if _, err := Explore(sim, tinyModel(), unpriced); err == nil {
		t.Error("zero TotalTokens accepted")
	}
	malformed := s
	malformed.Offerings = []hw.Offering{{Name: "freebie", Node: hw.DGXA100(), Interconnect: hw.IBHDRx4()}}
	if _, err := Explore(sim, tinyModel(), malformed); err == nil {
		t.Error("unpriced offering accepted")
	}
}

// TestNewerGPUFasterSameCluster sanity-checks the threaded generation
// knobs end to end: on identical cluster shapes and plans, H100 trains in
// fewer days than A100, which beats V100.
func TestNewerGPUFasterSameCluster(t *testing.T) {
	m := tinyModel()
	s := testSpace()
	s.NodeCounts = []int{2}
	sim := newTestSim(t, s)
	points, err := Explore(sim, m, s)
	if err != nil {
		t.Fatal(err)
	}
	bestDays := map[string]float64{}
	for _, p := range points {
		if d, ok := bestDays[p.Offering.Name]; !ok || p.Training.Days < d {
			bestDays[p.Offering.Name] = p.Training.Days
		}
	}
	if !(bestDays["h100-sxm-80gb"] < bestDays["a100-sxm-80gb"] &&
		bestDays["a100-sxm-80gb"] < bestDays["v100-sxm-32gb"]) {
		t.Errorf("generation ordering violated: %v", bestDays)
	}
}

// resilientSpace is testSpace with failure modeling on catalog defaults.
func resilientSpace() Space {
	s := testSpace()
	s.Resilience = &resilience.Options{}
	return s
}

// TestResilientSweepRanking pins the failure-adjusted sweep: every point
// carries a goodput in (0,1), effective cost strictly above ideal cost,
// ranking follows Better over the effective figures, and within one
// offering the larger cluster always has the lower goodput — the
// reliability tax that motivates the whole layer.
func TestResilientSweepRanking(t *testing.T) {
	m, s := tinyModel(), resilientSpace()
	points, err := Explore(newTestSim(t, s), m, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("empty sweep")
	}
	for i, p := range points {
		g := p.Resilience.GoodputFraction
		if !(g > 0 && g < 1) {
			t.Fatalf("point %d: goodput %v outside (0,1)", i, g)
		}
		if p.Resilience.EffectiveDollars <= p.Training.TotalDollars {
			t.Fatalf("point %d: effective cost %v not above ideal %v", i,
				p.Resilience.EffectiveDollars, p.Training.TotalDollars)
		}
		if p.EffectiveDollars() != p.Resilience.EffectiveDollars || p.EffectiveDays() != p.Resilience.EffectiveDays {
			t.Fatalf("point %d: Effective accessors ignore the resilience view", i)
		}
		if i > 0 && points[i].Better(points[i-1]) {
			t.Fatalf("point %d ranks above its predecessor", i)
		}
	}
	goodput := map[string]map[int]float64{}
	for _, p := range points {
		if goodput[p.Offering.Name] == nil {
			goodput[p.Offering.Name] = map[int]float64{}
		}
		goodput[p.Offering.Name][p.Nodes] = p.Resilience.GoodputFraction
	}
	for off, byNodes := range goodput {
		if len(byNodes) == 2 && byNodes[2] >= byNodes[1] {
			t.Errorf("%s: 2-node goodput %v not below 1-node %v", off, byNodes[2], byNodes[1])
		}
	}
}

// TestResilienceIsPurePostProcessing is the equivalence lock: with
// resilience disabled the sweep must be byte-identical to the pre-PR
// behavior, and enabling it must change neither the simulated reports, the
// ideal economics, nor the structural-cache behavior — only the extra
// Resilience view and the ranking that reads it.
func TestResilienceIsPurePostProcessing(t *testing.T) {
	m := tinyModel()

	ideal, idealSpace := []Point{}, testSpace()
	idealSim := newTestSim(t, idealSpace)
	idealPoints, err := Explore(idealSim, m, idealSpace)
	if err != nil {
		t.Fatal(err)
	}
	ideal = idealPoints

	resSpace := resilientSpace()
	resSim := newTestSim(t, resSpace)
	resPoints, err := Explore(resSim, m, resSpace)
	if err != nil {
		t.Fatal(err)
	}

	if len(ideal) != len(resPoints) {
		t.Fatalf("point counts differ: %d ideal vs %d resilient", len(ideal), len(resPoints))
	}

	// The structural cache must not notice resilience at all.
	if is, rs := idealSim.CacheStats(), resSim.CacheStats(); is != rs {
		t.Errorf("cache stats differ: ideal %+v vs resilient %+v", is, rs)
	}

	// Stripping the resilience view and re-ranking must reproduce the
	// disabled sweep exactly — same points, same order, same bytes.
	stripped := append([]Point(nil), resPoints...)
	for i := range stripped {
		stripped[i].Resilience = cost.Resilience{}
	}
	sort.Slice(stripped, func(i, j int) bool { return stripped[i].Better(stripped[j]) })
	if !reflect.DeepEqual(ideal, stripped) {
		t.Fatal("disabled-resilience sweep is not byte-identical to the stripped resilient sweep")
	}

	// And the disabled ranking itself must follow the raw-cost order the
	// pre-resilience Better used.
	for i := 1; i < len(ideal); i++ {
		p, q := ideal[i-1], ideal[i]
		if q.Training.TotalDollars < p.Training.TotalDollars {
			t.Fatalf("disabled ranking not by raw dollars at %d", i)
		}
		if q.Training.TotalDollars == p.Training.TotalDollars && q.Training.Days < p.Training.Days {
			t.Fatalf("disabled ranking not by raw days at %d", i)
		}
	}
}

// TestUnreliableCandidatesSkipped pins the infeasibility semantics: with a
// pathological failure environment the doomed candidates drop out like
// memory-infeasible plans, and when every candidate is doomed the sweep
// errors rather than returning an empty ranking.
func TestUnreliableCandidatesSkipped(t *testing.T) {
	m := tinyModel()

	// One second of per-GPU MTBF with one byte/s of checkpoint bandwidth:
	// nothing survives.
	s := testSpace()
	s.Resilience = &resilience.Options{MTBF: 1, WriteBandwidth: 1}
	if _, err := Explore(newTestSim(t, s), m, s); err == nil {
		t.Fatal("all-unreliable sweep returned points")
	}

	// A borderline environment keeps small clusters and drops large ones:
	// goodput gates feasibility per candidate, not globally. The tiny
	// model checkpoints ~237 MB, so at 160 kB/s a checkpoint takes
	// ~1,482 s: with 30,000 s of per-GPU MTBF the Young–Daly waste
	// sqrt(2CG/MTBF) is ~0.89 at 8 GPUs but ~1.26 at 16.
	s = testSpace()
	s.Resilience = &resilience.Options{MTBF: 3e4, WriteBandwidth: 160e3, Restart: 1}
	points, err := Explore(newTestSim(t, s), m, s)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[int]bool{}
	for _, p := range points {
		sizes[p.Nodes] = true
	}
	if !sizes[1] || sizes[2] {
		t.Fatalf("want only 1-node candidates to survive, got sizes %v", sizes)
	}

	// Broken overrides are an error, not a silent skip.
	s = testSpace()
	s.Resilience = &resilience.Options{MTBF: math.Inf(1)}
	if _, err := Explore(newTestSim(t, s), m, s); err == nil ||
		errors.Is(err, resilience.ErrUnreliable) {
		t.Fatalf("invalid override should fail loudly, got %v", err)
	}
}

// TestResilientFrontierAndDeadline pins that the frontier and deadline
// helpers read the effective figures: a deadline between a point's ideal
// and effective days must reject it once failures are priced.
func TestResilientFrontierAndDeadline(t *testing.T) {
	m, s := tinyModel(), resilientSpace()
	points, err := Explore(newTestSim(t, s), m, s)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFrontier(points)
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(front); i++ {
		if front[i].EffectiveDollars() <= front[i-1].EffectiveDollars() {
			t.Errorf("frontier effective cost not strictly ascending at %d", i)
		}
		if front[i].EffectiveDays() >= front[i-1].EffectiveDays() {
			t.Errorf("frontier effective days not strictly descending at %d", i)
		}
	}

	fastest := points[0]
	for _, p := range points {
		if p.EffectiveDays() < fastest.EffectiveDays() {
			fastest = p
		}
	}
	// A deadline squeezed between the fastest point's ideal and effective
	// days is only satisfiable if failures are ignored.
	if fastest.Training.Days < fastest.EffectiveDays() {
		deadline := (fastest.Training.Days + fastest.EffectiveDays()) / 2
		if best, ok := CheapestWithinDeadline(points, deadline); ok {
			t.Errorf("deadline %v below every effective time, but got %v (eff %v days)",
				deadline, best.Candidate, best.EffectiveDays())
		}
	}
}

// TestContentionOffIsByteIdentical is the contention equivalence lock,
// mirroring TestResilienceIsPurePostProcessing: with the knob off the
// sweep must be byte-identical to the default space — same points, same
// order, same lowering and batching counters — and turning it on must
// change only comm-side timing: same candidate/plan coverage, identical
// structural-cache behavior (structure is contention-invariant), compute
// time untouched, and no point ever gets faster.
func TestContentionOffIsByteIdentical(t *testing.T) {
	m := tinyModel()

	def := testSpace()
	defSim := newTestSim(t, def)
	defPoints, err := Explore(defSim, m, def)
	if err != nil {
		t.Fatal(err)
	}

	off := testSpace()
	off.Contention = false
	offSim := newTestSim(t, off)
	offPoints, err := Explore(offSim, m, off)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(defPoints, offPoints) {
		t.Fatal("Contention:false sweep is not byte-identical to the default sweep")
	}
	if ds, os := defSim.CacheStats(), offSim.CacheStats(); ds != os {
		t.Errorf("cache stats differ: default %+v vs contention-off %+v", ds, os)
	}

	on := testSpace()
	on.Contention = true
	onSim := newTestSim(t, on)
	onPoints, err := Explore(onSim, m, on)
	if err != nil {
		t.Fatal(err)
	}
	if len(onPoints) != len(defPoints) {
		t.Fatalf("point counts differ: %d ideal vs %d contended", len(defPoints), len(onPoints))
	}
	// Contention binds at replay time, never into the structure: the two
	// sweeps lower, hit, and batch exactly alike.
	if ds, cs := defSim.CacheStats(), onSim.CacheStats(); ds != cs {
		t.Errorf("cache stats differ: ideal %+v vs contended %+v", ds, cs)
	}

	type key struct {
		offering string
		nodes    int
		plan     parallel.Plan
	}
	ideal := make(map[key]Point, len(defPoints))
	for _, p := range defPoints {
		ideal[key{p.Offering.Name, p.Nodes, p.Plan}] = p
	}
	slowed := 0
	for _, p := range onPoints {
		base, ok := ideal[key{p.Offering.Name, p.Nodes, p.Plan}]
		if !ok {
			t.Fatalf("contended sweep visited %v %d nodes %s, ideal sweep did not", p.Offering.Name, p.Nodes, p.Plan)
		}
		if p.Report.ComputeSeconds != base.Report.ComputeSeconds {
			t.Errorf("%s/%d/%s: contention changed compute time %v -> %v",
				p.Offering.Name, p.Nodes, p.Plan, base.Report.ComputeSeconds, p.Report.ComputeSeconds)
		}
		if p.Report.CommSeconds < base.Report.CommSeconds {
			t.Errorf("%s/%d/%s: contention lowered comm time %v -> %v",
				p.Offering.Name, p.Nodes, p.Plan, base.Report.CommSeconds, p.Report.CommSeconds)
		}
		if p.Report.IterTime < base.Report.IterTime {
			t.Errorf("%s/%d/%s: contention lowered iteration time %v -> %v",
				p.Offering.Name, p.Nodes, p.Plan, base.Report.IterTime, p.Report.IterTime)
		}
		if p.Report.CommSeconds > base.Report.CommSeconds {
			slowed++
		}
	}
	if slowed == 0 {
		t.Error("no design point paid any congestion tax — Space.Contention is not wired through ForCluster")
	}
}

// TestPrefetchLowersEachShapeOnce is dse's prefetch bound on the joint
// sweep: with a structural cache much smaller than the sweep's distinct
// shapes, the shared prefetcher must not evict shapes it warmed before
// their cross-candidate batch reads them, so each shape lowers exactly
// once. Run it under -race.
func TestPrefetchLowersEachShapeOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const cacheSize = 8
	m := tinyModel()
	s := testSpace()
	s.NodeCounts = []int{1, 2, 4}
	s.Plans = dse.Space{
		TensorWidths:    []int{1, 2, 4, 8},
		DataWidths:      []int{1, 2, 4, 8},
		PipelineDepths:  []int{1, 2, 4},
		MicroBatches:    []int{1, 2},
		GlobalBatch:     64,
		GradientBuckets: 2,
	}
	for rep := 0; rep < 10; rep++ {
		sim, err := NewSimulator(s, core.WithFidelity(taskgraph.OperatorLevel),
			core.WithCacheSize(0), core.WithStructCacheSize(cacheSize))
		if err != nil {
			t.Fatal(err)
		}
		points, err := Explore(sim, m, s)
		if err != nil {
			t.Fatal(err)
		}
		shapes := make(map[core.Shape]bool)
		for _, p := range points {
			shapes[sim.PlanShape(m, p.Plan)] = true
		}
		if len(shapes) <= 2*cacheSize {
			t.Fatalf("fixture has %d shapes, want well over the cache's %d", len(shapes), cacheSize)
		}
		if got := sim.CacheStats().Lowerings; got != uint64(len(shapes)) {
			t.Fatalf("sweep %d lowered %d times for %d distinct shapes, want each exactly once", rep, got, len(shapes))
		}
	}
}
