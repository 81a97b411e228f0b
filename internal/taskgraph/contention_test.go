package taskgraph

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/hw"
	"vtrain/internal/parallel"
)

// TestReplayContendedNilMatchesReplay pins the equivalence lock of the
// contention fidelity level and of the two replay bodies: with no
// contention table — a nil ct, a nil cts slice, or a slice of nils — the
// width-1 body (single and traced replays) and the lane loop (batches of
// width > 1) perform bit-identical float operations, so the contention-off
// path is exactly the ideal simulator at every width.
func TestReplayContendedNilMatchesReplay(t *testing.T) {
	plans := []parallel.Plan{
		{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 4, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
	}
	g, tables := batchFixture(t, plans)

	want := make([]Result, len(tables))
	for i, tbl := range tables {
		res, err := g.ReplayContended(tbl, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
		traced, spans, err := g.ReplayTraceContended(tbl, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, i, traced, res)
		if len(spans) != res.Executed {
			t.Fatalf("table %d: %d spans for %d executed tasks", i, len(spans), res.Executed)
		}
		one, err := g.ReplayBatchContended(tables[i:i+1], []*ContentionTable{nil})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, i, one[0], res)
	}

	for _, cts := range [][]*ContentionTable{nil, make([]*ContentionTable, len(tables))} {
		got, err := g.ReplayBatchContended(tables, cts)
		if err != nil {
			t.Fatal(err)
		}
		for lane := range want {
			requireIdentical(t, lane, got[lane], want[lane])
		}
	}
	if _, err := g.ReplayBatchContended(tables, make([]*ContentionTable, 1)); err == nil {
		t.Fatal("mismatched cts length: expected an error")
	}
}

// TestContendedBatchMatchesSequential pins the batch contract under
// contention: each lane of ReplayBatchContended is bit-identical to a
// sequential ReplayContended of the same (table, contention table) pair —
// occupancy ledgers are per lane and never leak across lanes.
func TestContendedBatchMatchesSequential(t *testing.T) {
	c := hw.PaperCluster(8)
	plans := []parallel.Plan{
		{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 4, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 8, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
	}
	g, tables := batchFixture(t, plans)
	cts := make([]*ContentionTable, len(plans))
	for i, plan := range plans {
		cts[i] = g.BindContention(plan, c, tables[i])
		if cts[i] == nil {
			t.Fatalf("plan %d: BindContention returned nil for a structural graph", i)
		}
	}
	// Leave one lane ideal: mixed batches must stay well-defined.
	cts[1] = nil

	want := make([]Result, len(tables))
	for i, tbl := range tables {
		res, err := g.ReplayContended(tbl, cts[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	// Width 16 cycles the four (table, contention table) pairs: lanes are
	// independent, so duplicated lanes must reproduce the same sequential
	// result — and a full-width batch exercises the per-lane ledger pool at
	// the widest fan-out the core batching layer emits.
	for _, k := range []int{1, 4, 16} {
		wideTables := make([]*DurationTable, k)
		wideCts := make([]*ContentionTable, k)
		for i := range wideTables {
			wideTables[i] = tables[i%len(tables)]
			wideCts[i] = cts[i%len(cts)]
		}
		got, err := g.ReplayBatchContended(wideTables, wideCts)
		if err != nil {
			t.Fatalf("width %d: %v", k, err)
		}
		for lane := 0; lane < k; lane++ {
			requireIdentical(t, lane, got[lane], want[lane%len(want)])
		}
	}
}

// serialFlows drives a ledger the way replay does: every slot is one comm
// stream with its own timeline, each flow starts at or after the slot's
// previous end (a third of the time exactly at it), and each flow is
// recorded on one to three of the ledger's classes. Before recording, every
// flow queries its classes' overlap counts, and a random [s, e) range —
// often sharing an endpoint with some slot's recorded flow — is queried
// too; all counts are checked against a flat scan of what was recorded.
func serialFlows(t *testing.T, rng *rand.Rand, cs *contState, classes, slots, flows int) {
	t.Helper()
	type iv struct{ start, end float64 }
	ref := make([][]iv, classes)
	free := make([]float64, slots)
	check := func(class int, s, e float64) {
		t.Helper()
		want := 0
		for _, p := range ref[class] {
			if p.start < e && p.end > s {
				want++
			}
		}
		if got := cs.overlaps(class, s, e); got != want {
			t.Fatalf("class %d: overlaps(%v, %v) = %d, want %d (%d flows recorded)",
				class, s, e, got, want, len(ref[class]))
		}
	}
	for op := 0; op < flows; op++ {
		slot := rng.Intn(slots)
		start := free[slot]
		if rng.Intn(3) > 0 {
			start += rng.Float64() * 2
		}
		var end float64
		switch rng.Intn(3) {
		case 0:
			end = start + rng.Float64()*0.01 // short flow
		case 1:
			end = start + rng.Float64()*5 // long flow
		default:
			end = start + 1e-12 // near-degenerate
		}
		free[slot] = end
		var picked []int
		for n := 1 + rng.Intn(3); n > 0; n-- {
			if c := rng.Intn(classes); !slices.Contains(picked, c) {
				picked = append(picked, c)
			}
		}
		for _, class := range picked {
			check(class, start, end)
		}
		for _, class := range picked {
			cs.record(class, int32(2*slot+1), start, end)
			ref[class] = append(ref[class], iv{start, end})
		}
		// An arbitrary range, anchored on recorded endpoints half the time
		// (overlap is half-open: [s, e) vs [s2, e2)).
		class := rng.Intn(classes)
		s := rng.Float64() * free[slot]
		e := s + rng.Float64()*3
		if r := ref[class]; len(r) > 0 && rng.Intn(2) == 0 {
			a, b := r[rng.Intn(len(r))], r[rng.Intn(len(r))]
			s, e = a.end, b.start
			if rng.Intn(2) == 0 {
				s, e = a.start, b.end
			}
			if e <= s {
				e = s + rng.Float64()
			}
		}
		check(class, s, e)
	}
}

// TestContentionLedgerExactCounts pins the ledger's exactness contract on
// its real input: several slots per class, each emitting serial flows (a
// start at or after the slot's previous end on that class, including
// exactly at it), queried over arbitrary ranges — including endpoints equal
// to other slots' recorded endpoints — and cross-checked against a flat
// scan. Pooled reuse must hand back a clean ledger.
func TestContentionLedgerExactCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 6; round++ {
		ct := &ContentionTable{classes: 1 + round}
		cs := getContState(ct)
		serialFlows(t, rng, cs, ct.classes, 1+2*round, 3000)
		// Release and reacquire: the pooled state must come back clean.
		putContState(cs)
		cs = getContState(ct)
		for class := 0; class < ct.classes; class++ {
			if got := cs.overlaps(class, 0, 1e18); got != 0 {
				t.Fatalf("round %d: pooled ledger not reset, class %d reports %d overlaps", round, class, got)
			}
		}
		putContState(cs)
	}
}

// TestContentionLedgerOutOfOrderPanics pins the seriality invariant: a flow
// recorded on a slot's run before that run's last end would corrupt the
// binary-search counts, so it panics naming the class and slot. Starting
// exactly at the previous end, and another slot recording an earlier flow,
// are both legal.
func TestContentionLedgerOutOfOrderPanics(t *testing.T) {
	cs := getContState(&ContentionTable{classes: 8})
	defer putContState(cs)
	cs.record(5, 3, 0, 2)
	cs.record(5, 3, 2, 4)
	cs.record(5, 7, 1, 3)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-order flow on slot 3 recorded without a panic")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "class 5 slot 3") {
			t.Fatalf("panic %q does not name class 5 slot 3", r)
		}
	}()
	cs.record(5, 3, 3.5, 5)
}

// TestContStateResetAcrossClassCounts pins pooled-state reuse across
// clusters of different sizes (cluster sweeps, the warm server pool share
// the contStatePools). Growing the ledger by append can leave cap > len, so
// a later reset with len < classes <= cap must reslice within capacity —
// the 10 -> 13 -> 15 sequence used to compute a negative make length and
// panic with "makeslice: len out of range".
func TestContStateResetAcrossClassCounts(t *testing.T) {
	cs := new(contState)
	for _, classes := range []int{10, 13, 15, 4, 11, 64, 20} {
		ct := &ContentionTable{classes: classes}
		cs.reset(ct)
		if len(cs.led) < classes {
			t.Fatalf("classes=%d: ledger len %d after reset", classes, len(cs.led))
		}
		for class := 0; class < classes; class++ {
			if got := cs.overlaps(class, 0, 1e18); got != 0 {
				t.Fatalf("classes=%d: class %d not reset, reports %d overlaps", classes, class, got)
			}
			cs.record(class, 1, float64(class), float64(class)+2)
			if got := cs.overlaps(class, float64(class)+1, float64(class)+3); got != 1 {
				t.Fatalf("classes=%d: class %d overlaps = %d, want 1", classes, class, got)
			}
		}
	}
}

// TestContStatePoolSequences is the pooled-scratch property test, the bug
// class of the "makeslice: len out of range" reset panic: a seeded
// sequence of ledger sizes — class counts, slots, and flows growing,
// shrinking, and landing in between, through both direct resets and the
// sync.Pool — must always find a clean ledger with exact counts. After a
// large replay, shrinkAfter+1 small ones must shed the oversized flow
// arena and ledger slice.
func TestContStatePoolSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cs := new(contState)
	for step := 0; step < 120; step++ {
		classes := 1 + rng.Intn(40)
		slots := 1 + rng.Intn(12)
		flows := rng.Intn(200)
		if step%25 == 0 {
			classes, flows = 80+rng.Intn(40), 4000
		}
		ct := &ContentionTable{classes: classes}
		if rng.Intn(2) == 0 {
			cs.reset(ct)
		} else {
			putContState(cs)
			cs = getContState(ct)
		}
		if len(cs.led) < classes {
			t.Fatalf("step %d: %d ledgers for %d classes", step, len(cs.led), classes)
		}
		for c := range cs.led {
			if cs.led[c].n != 0 || cs.overlaps(c, -1e18, 1e18) != 0 {
				t.Fatalf("step %d: class %d of %d not clean after reset", step, c, len(cs.led))
			}
		}
		serialFlows(t, rng, cs, classes, slots, flows)
	}

	// One large replay, then small ones: shrinkAfter oversized resets
	// must shed the large replay's arena and ledger slice.
	big := &ContentionTable{classes: 200}
	cs.reset(big)
	serialFlows(t, rng, cs, big.classes, 4, 20000)
	bigArena := cap(cs.arena)
	small := &ContentionTable{classes: 3}
	for i := 0; i <= shrinkAfter; i++ {
		cs.reset(small)
		serialFlows(t, rng, cs, small.classes, 2, 4)
	}
	if cap(cs.led) > 4*small.classes {
		t.Fatalf("ledger slice capacity %d kept after %d small resets (classes %d)", cap(cs.led), shrinkAfter+1, small.classes)
	}
	if c := cap(cs.arena); c > 4*int(cs.top) {
		t.Fatalf("arena capacity %d flows (%d after the large replay) kept after %d small replays using %d",
			c, bigArena, shrinkAfter+1, cs.top)
	}
}

// TestContentionMonotone is the tentpole's property test: adding
// link-sharing concurrent collectives never decreases any comm task's
// duration. A hand-built graph of independent data-parallel All-Reduces on
// one node's NVSwitch pops them in ID order, so task i overlaps exactly the
// i flows recorded before it and its derate factor is 1 + NVShare*i —
// nondecreasing in concurrency, and never below the ideal duration.
func TestContentionMonotone(t *testing.T) {
	c := hw.PaperCluster(8)
	const stages = 4
	b := NewBuilder(stages)
	desc := durDesc{kind: descAllReduceDP, stageParams: 1 << 20, buckets: 1}
	for dev := 0; dev < stages; dev++ {
		b.addTaskDesc(Task{Device: dev, Stream: CommStream, Class: "AllReduceDP"}, desc)
	}
	g := b.Build()

	// Data width 2 at stride 2 on 8-GPU nodes: the group is node-local, so
	// every stage's collective shares node 0's NVSwitch.
	plan := parallel.Plan{Tensor: 1, Data: 2, Pipeline: stages, MicroBatch: 1, GlobalBatch: 2 * stages}
	cm := comm.NewModel(c)
	tbl := g.Bind(nil, cm, plan, c)
	defer tbl.Release()
	ct := g.BindContention(plan, c, tbl)
	if ct == nil {
		t.Fatal("BindContention returned nil for a descriptor graph")
	}

	base := tbl.Duration(0)
	if base <= 0 {
		t.Fatalf("ideal All-Reduce duration %v, want > 0", base)
	}
	_, spans, err := g.ReplayTraceContended(tbl, ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != stages {
		t.Fatalf("got %d spans, want %d", len(spans), stages)
	}
	cg := comm.NewCongestion(c)
	prev := 0.0
	for i, sp := range spans {
		dur := sp.End - sp.Start
		if dur < base {
			t.Fatalf("span %d: contended duration %v < ideal %v", i, dur, base)
		}
		if dur < prev {
			t.Fatalf("span %d: duration %v decreased below span %d's %v under growing concurrency", i, dur, i-1, prev)
		}
		if want := base * cg.Derate(i, 0, 0); dur != want {
			t.Fatalf("span %d: duration %v, want base*(1+NVShare*%d) = %v", i, dur, i, want)
		}
		prev = dur
	}

	// The same property must hold on a real lowered graph: every comm span
	// is at least its ideal twin, compute spans are untouched, and the
	// iteration time never shrinks.
	plan = parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2}
	bg := lower(t, plan, OperatorLevel)
	ideal, idealSpans, err := bg.g.ReplayTraceContended(bg.tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	lct := bg.g.BindContention(plan, c, bg.tbl)
	cont, contSpans, err := bg.g.ReplayTraceContended(bg.tbl, lct)
	if err != nil {
		t.Fatal(err)
	}
	if cont.IterTime < ideal.IterTime {
		t.Fatalf("contended IterTime %v < ideal %v", cont.IterTime, ideal.IterTime)
	}
	// Busy seconds accumulate the replayed durations directly, so the
	// comparison is exact: compute streams are untouched, comm streams only
	// ever grow.
	for d := range ideal.ComputeBusy {
		if cont.ComputeBusy[d] != ideal.ComputeBusy[d] {
			t.Fatalf("device %d: compute busy changed %v -> %v", d, ideal.ComputeBusy[d], cont.ComputeBusy[d])
		}
		if cont.CommBusy[d] < ideal.CommBusy[d] {
			t.Fatalf("device %d: comm busy %v < ideal %v", d, cont.CommBusy[d], ideal.CommBusy[d])
		}
	}
	if len(contSpans) != len(idealSpans) {
		t.Fatalf("%d contended spans != %d ideal", len(contSpans), len(idealSpans))
	}
	// Span durations are reconstructed as End-Start, so shifted start times
	// cost up to an ulp; compare with a relative tolerance.
	const tol = 1e-12
	for i := range idealSpans {
		id, cd := idealSpans[i].End-idealSpans[i].Start, contSpans[i].End-contSpans[i].Start
		if cd < id*(1-tol) {
			t.Fatalf("span %d (%v stream): contended duration %v < ideal %v", i, contSpans[i].Stream, cd, id)
		}
	}
}

// TestHierarchicalAllReduceParticipants pins the inter-node participant
// count of hierarchical collectives (the Eq. 1 fix): a data-parallel group
// of 8 ranks spread 4-per-node over 2 nodes reduces node-local first, so
// the inter-node ring phase sees 2 participants — the nodes — not 8.
func TestHierarchicalAllReduceParticipants(t *testing.T) {
	c := hw.PaperCluster(2)
	c.Node.GPUsPerNode = 4

	const stageParams = 1 << 22
	b := NewBuilder(1)
	b.addTaskDesc(Task{Device: 0, Stream: CommStream, Class: "AllReduceDP"},
		durDesc{kind: descAllReduceDP, stageParams: stageParams, buckets: 1})
	g := b.Build()

	plan := parallel.Plan{Tensor: 1, Data: 8, Pipeline: 1, MicroBatch: 1, GlobalBatch: 8}
	m := comm.NewModel(c)
	tbl := g.Bind(nil, m, plan, c)
	defer tbl.Release()

	want := m.AllReduceInter(2*float64(stageParams), 2)
	if got := tbl.Duration(0); got != want {
		t.Fatalf("2-node x 4-rank gradient All-Reduce priced %v, want the 2-participant inter-node ring %v (got n=ranks? %v)",
			got, want, m.AllReduceInter(2*float64(stageParams), 8))
	}
	if want >= m.AllReduceInter(2*float64(stageParams), 8) {
		t.Fatal("sanity: the 2-participant ring should be cheaper than the 8-participant one")
	}

	// The node-count arithmetic itself, over the corner cases: intra-node
	// groups, exact node multiples, and t > gpn (each member on its own
	// node, capped at the member count).
	cases := []struct {
		t, d, gpn string
		plan      parallel.Plan
		gpnVal    int
		wantN     int
		wantIntra bool
		dp        bool
	}{
		{plan: parallel.Plan{Tensor: 4, Data: 1}, gpnVal: 8, wantN: 4, wantIntra: true},
		{plan: parallel.Plan{Tensor: 16, Data: 1}, gpnVal: 8, wantN: 2, wantIntra: false},
		{plan: parallel.Plan{Tensor: 1, Data: 8}, gpnVal: 8, wantN: 8, wantIntra: true, dp: true},
		{plan: parallel.Plan{Tensor: 4, Data: 8}, gpnVal: 8, wantN: 4, wantIntra: false, dp: true},
		{plan: parallel.Plan{Tensor: 16, Data: 4}, gpnVal: 8, wantN: 4, wantIntra: false, dp: true},
	}
	for _, tc := range cases {
		var n int
		var intra bool
		if tc.dp {
			n, intra = allReduceDPArgs(tc.plan, tc.gpnVal)
		} else {
			n, intra = allReduceTPArgs(tc.plan, tc.gpnVal)
		}
		if n != tc.wantN || intra != tc.wantIntra {
			t.Errorf("t=%d d=%d gpn=%d (dp=%v): got (%d, %v), want (%d, %v)",
				tc.plan.Tensor, tc.plan.Data, tc.gpnVal, tc.dp, n, intra, tc.wantN, tc.wantIntra)
		}
	}
}

// fillLedger records flows serial flows round-robin over slots and classes:
// a fixed demand, so a ledger that served it once never needs to grow for
// it again.
func fillLedger(cs *contState, classes, slots, flows int) {
	free := make([]float64, slots)
	for i := 0; i < flows; i++ {
		slot := i % slots
		cs.record(i%classes, int32(2*slot+1), free[slot], free[slot]+1)
		free[slot]++
	}
}

// TestContStatePoolMixedDemand is the pooled-ledger property test for a
// sweep that mixes heavy tables (a TP All-Reduce on a live class:
// thousands of flows) with light ones across the lanes of successive
// batches. Keyed by demand, a pooled ledger only ever serves its own kind,
// so a reused arena never has to be regrown (fresh states, from the pool's
// New or after the pool dropped one, are not regrowths). Shedding must
// still work within a kind: a heavy-keyed ledger whose demand turns small
// sheds its oversized arena and ledger slice after shrinkAfter resets.
func TestContStatePoolMixedDemand(t *testing.T) {
	// Start from empty pools, so no earlier test's ledgers are reused.
	contStatePools = [2]sync.Pool{{New: contStatePools[0].New}, {New: contStatePools[1].New}}
	heavy := &ContentionTable{classes: 40, heavy: true}
	light := &ContentionTable{classes: 6}
	const k = 8
	regrown, heavyLanes := 0, 0
	for step := 0; step < 60; step++ {
		states := make([]*contState, k)
		for l := range states {
			ct, flows := light, 40
			if (step*3+l*5)%7 < 2 {
				ct, flows = heavy, 6000
				heavyLanes++
			}
			cs := getContState(ct)
			before := cap(cs.arena)
			fillLedger(cs, ct.classes, 4, flows)
			if before > 0 && cap(cs.arena) > before {
				regrown++
			}
			states[l] = cs
		}
		for _, cs := range states {
			putContState(cs)
		}
	}
	t.Logf("%d pooled arenas regrown over %d heavy and %d light lanes", regrown, heavyLanes, 60*k-heavyLanes)
	if regrown > 2 {
		t.Fatalf("%d pooled arenas regrown over %d heavy and %d light lanes, want at most 2: heavy and light ledgers share storage",
			regrown, heavyLanes, 60*k-heavyLanes)
	}

	cs := getContState(heavy)
	defer putContState(cs)
	fillLedger(cs, heavy.classes, 4, 6000)
	small := &ContentionTable{classes: 3, heavy: true}
	for i := 0; i <= shrinkAfter; i++ {
		cs.reset(small)
		fillLedger(cs, small.classes, 2, 4)
	}
	if cap(cs.led) > 4*small.classes {
		t.Fatalf("ledger slice capacity %d kept after %d small resets (classes %d)", cap(cs.led), shrinkAfter+1, small.classes)
	}
	if c := cap(cs.arena); c > 4*int(cs.top) {
		t.Fatalf("heavy-keyed arena capacity %d flows kept after %d small replays using %d", c, shrinkAfter+1, cs.top)
	}
}
