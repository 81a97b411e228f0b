package taskgraph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// batchFixture lowers one structural graph and binds a table per plan, the
// way SimulateBatch feeds ReplayBatchContended: all plans share the graph's shape,
// only their bound durations differ.
func batchFixture(t *testing.T, plans []parallel.Plan) (*Graph, []*DurationTable) {
	t.Helper()
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	og, err := opgraph.Build(tinyModel(), plans[0], c)
	if err != nil {
		t.Fatal(err)
	}
	g := Lower(og, prof, OperatorLevel)
	cm := comm.NewModel(c)
	tables := make([]*DurationTable, len(plans))
	for i, plan := range plans {
		tables[i] = g.Bind(prof, cm, plan, c)
	}
	return g, tables
}

// requireIdentical fails unless got and want are bit-identical — float
// equality is exact, not approximate, because each batch lane must perform
// a single replay's operations in the same order.
func requireIdentical(t *testing.T, lane int, got, want Result) {
	t.Helper()
	if got.IterTime != want.IterTime {
		t.Fatalf("lane %d: IterTime %v != sequential %v", lane, got.IterTime, want.IterTime)
	}
	if got.FLOPs != want.FLOPs {
		t.Fatalf("lane %d: FLOPs %v != sequential %v", lane, got.FLOPs, want.FLOPs)
	}
	if got.Executed != want.Executed {
		t.Fatalf("lane %d: Executed %d != sequential %d", lane, got.Executed, want.Executed)
	}
	for d := range want.ComputeBusy {
		if got.ComputeBusy[d] != want.ComputeBusy[d] {
			t.Fatalf("lane %d: ComputeBusy[%d] %v != sequential %v", lane, d, got.ComputeBusy[d], want.ComputeBusy[d])
		}
		if got.CommBusy[d] != want.CommBusy[d] {
			t.Fatalf("lane %d: CommBusy[%d] %v != sequential %v", lane, d, got.CommBusy[d], want.CommBusy[d])
		}
	}
	if len(got.ClassSeconds) != len(want.ClassSeconds) {
		t.Fatalf("lane %d: %d classes != sequential %d", lane, len(got.ClassSeconds), len(want.ClassSeconds))
	}
	for class, sec := range want.ClassSeconds {
		if got.ClassSeconds[class] != sec {
			t.Fatalf("lane %d: ClassSeconds[%q] %v != sequential %v", lane, class, got.ClassSeconds[class], sec)
		}
	}
}

// TestReplayBatchEquivalence pins the batching contract and the equivalence
// of replay's two bodies: the lane loop over K tables returns exactly what K
// single replays through the width-1 body return — bit for bit — at width
// > 1 and for a shape group mixing micro-batch sizes (same micro-batch
// count, so one structure; different data widths, so different durations
// per lane).
func TestReplayBatchEquivalence(t *testing.T) {
	// All plans share (pipeline depth 2, 8 micro-batches): d=1,mb=2 and
	// d=2,mb=1 both split GlobalBatch 16 into 8 micro-batches, and tensor
	// width never affects structure. One graph, eight distinct tables.
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 4, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 4, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 4, Pipeline: 2, MicroBatch: 2, GlobalBatch: 64, GradientBuckets: 2},
		{Tensor: 2, Data: 4, Pipeline: 2, MicroBatch: 2, GlobalBatch: 64, GradientBuckets: 2},
	}
	g, tables := batchFixture(t, plans)

	want := make([]Result, len(tables))
	for i, tbl := range tables {
		res, err := g.ReplayContended(tbl, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	for _, k := range []int{1, 3, len(tables)} {
		got, err := g.ReplayBatchContended(tables[:k], nil)
		if err != nil {
			t.Fatalf("width %d: %v", k, err)
		}
		if len(got) != k {
			t.Fatalf("width %d: got %d results", k, len(got))
		}
		for lane := 0; lane < k; lane++ {
			requireIdentical(t, lane, got[lane], want[lane])
		}
	}

	// Batch composition must not leak between lanes: the same table in a
	// different lane position still reproduces its sequential result.
	perm := []*DurationTable{tables[5], tables[0], tables[3]}
	got, err := g.ReplayBatchContended(perm, nil)
	if err != nil {
		t.Fatal(err)
	}
	for lane, wi := range []int{5, 0, 3} {
		requireIdentical(t, lane, got[lane], want[wi])
	}
}

// TestReplayBatchValidation pins the error contract: empty batches are a
// nil no-op, nil and mis-sized tables are rejected before any replay work.
func TestReplayBatchValidation(t *testing.T) {
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
	}
	g, tables := batchFixture(t, plans)

	if res, err := g.ReplayBatchContended(nil, nil); res != nil || err != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", res, err)
	}
	if _, err := g.ReplayBatchContended([]*DurationTable{tables[0], nil}, nil); err == nil || !strings.Contains(err.Error(), "nil") {
		t.Fatalf("nil table: err = %v", err)
	}

	other := parallel.Plan{Tensor: 1, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8}
	_, wrong := batchFixture(t, []parallel.Plan{other})
	if _, err := g.ReplayBatchContended([]*DurationTable{wrong[0]}, nil); err == nil || !strings.Contains(err.Error(), "binds") {
		t.Fatalf("mis-sized table: err = %v", err)
	}
}

// TestReplayRejectsBadDurations pins replay's duration precondition: a
// negative or NaN bound duration would run a slot's clock backward or
// poison it, and the walk's first-edge row init (a plain copy of the
// finish row) relies on neither occurring. Replay must return a
// *DurationError naming the bad table's index in the batch and the first
// task that reads the value, at widths 1, 4 and 16.
func TestReplayRejectsBadDurations(t *testing.T) {
	// build returns a three-task chain across two devices whose middle
	// (comm) task takes mid seconds.
	build := func(mid float64) *Graph {
		b := NewBuilder(2)
		x := b.AddTask(Task{Device: 0, Duration: 1e-3, Class: "A"})
		y := b.AddTask(Task{Device: 1, Stream: CommStream, Duration: mid, Class: "B"})
		z := b.AddTask(Task{Device: 1, Duration: 1e-3, Class: "A"})
		b.AddEdge(x, y)
		b.AddEdge(y, z)
		return b.Build()
	}
	g := build(2e-3)
	good := bindEager(g)
	if _, err := g.ReplayContended(good, nil); err != nil {
		t.Fatalf("good table: %v", err)
	}
	for _, bad := range []float64{math.NaN(), -1e-3, math.Inf(-1)} {
		badTbl := bindEager(build(bad))
		check := func(err error, width, lane int) {
			t.Helper()
			var de *DurationError
			if !errors.As(err, &de) {
				t.Fatalf("duration %v, width %d: err = %v, want a *DurationError", bad, width, err)
			}
			if de.Table != lane || de.Task != 1 {
				t.Fatalf("duration %v, width %d: error names table %d task %d, want table %d task 1", bad, width, de.Table, de.Task, lane)
			}
			if want := fmt.Sprintf("duration table %d ", lane); !strings.Contains(err.Error(), want) {
				t.Fatalf("duration %v, width %d: message %q does not contain %q", bad, width, err, want)
			}
		}
		_, err := g.ReplayContended(badTbl, nil)
		check(err, 1, 0)
		_, _, err = g.ReplayTraceContended(badTbl, nil)
		check(err, 1, 0)
		for _, k := range []int{4, 16} {
			for _, lane := range []int{1, k - 1} {
				tables := make([]*DurationTable, k)
				for l := range tables {
					tables[l] = good
				}
				tables[lane] = badTbl
				_, err := g.ReplayBatchContended(tables, nil)
				check(err, k, lane)
			}
		}
	}
}

// TestLaneMatrixRows guards the lane loop's duration matrix. A stateless
// batch — every lane gathering through the graph's durIdx, as in a sweep —
// must lay the matrix out by descriptor, len(g.descs)*k entries, at widths
// 4 and 16: a silent fallback to task rows would stay bit-identical but
// give back the gain the small matrix exists for. A mixed batch, with a
// per-descriptor comm.Model lane beside per-task stripMarker and
// driftTimer lanes, must fall back to task rows. Either way every lane
// must equal its width-1 replay bit for bit.
func TestLaneMatrixRows(t *testing.T) {
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
	}
	c := hw.PaperCluster(8)
	g, prof := lowerOn(t, tinyModel(), plans[0], c, TaskLevel)
	cm := comm.NewModel(c)
	n := g.NumTasks()
	bind := func(timers []CommTimer) []*DurationTable {
		tables := make([]*DurationTable, len(timers))
		for l, timer := range timers {
			tables[l] = g.Bind(prof, timer, plans[l%len(plans)], c)
		}
		return tables
	}
	check := func(name string, tables []*DurationTable, wantRows int) {
		t.Helper()
		k := len(tables)
		var sc batchScratch
		sc.reset(n, g.Devices, len(g.classes), k)
		ix := sc.fillMatrix(tables)
		if len(sc.m) != wantRows*k {
			t.Fatalf("%s: matrix has %d entries, want %d rows x %d lanes", name, len(sc.m), wantRows, k)
		}
		got, err := g.ReplayBatchContended(tables, nil)
		if err != nil {
			t.Fatal(err)
		}
		for l, tbl := range tables {
			if v, want := sc.m[int(ix[l%n])*k+l], tbl.vals[tbl.idx[l%n]]; v != want {
				t.Fatalf("%s: lane %d reads %v for task %d, its table binds %v", name, l, v, l%n, want)
			}
			res, err := g.ReplayContended(tbl, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, l, got[l], res)
		}
	}

	for _, k := range []int{4, 16} {
		timers := make([]CommTimer, k)
		for l := range timers {
			timers[l] = cm
		}
		check(fmt.Sprintf("stateless width %d", k), bind(timers), len(g.descs))
	}
	check("mixed", bind([]CommTimer{cm, stripMarker{cm}, &driftTimer{cm: cm}, cm}), n)
}

// freshPools replaces the table and replay-scratch pools with empty ones,
// so the next Bind and replay start from newly allocated storage (the lane
// matrix included: it lives in the replay scratch).
func freshPools() {
	tablePool = sync.Pool{New: tablePool.New}
	batchScratchPool = sync.Pool{New: batchScratchPool.New}
}

// poolCase is one binding of the pooled-reuse sequence and its reference
// replay from fresh pools.
type poolCase struct {
	g     *Graph
	bind  func() *DurationTable
	want  Result
	spans []Span
}

// TestReplayPoolSequences is the pooled-reuse property test for bound
// tables and replay scratch, the bug class of the "makeslice: len out of
// range" reset panic. A seeded sequence of Bind, replay, and Release
// alternates descriptor gathers (a few dozen entries) with identity
// gathers (one entry per task, from marker-less and stateful timers and
// hand-built graphs) over graphs from 3 to 6,000 tasks, at batch widths 1,
// 4, and 16, so pooled tables and scratch grow, shrink, and land in
// between. Every result and timeline must match, bit for bit, the replay of
// the same binding from fresh pools, and the lane loop's duration matrix
// must shed a task-row high-water mark per wantShrink.
func TestReplayPoolSequences(t *testing.T) {
	c := hw.PaperCluster(8)
	cm := comm.NewModel(c)
	timers := []func() CommTimer{
		func() CommTimer { return cm },
		func() CommTimer { return stripMarker{cm} },
		func() CommTimer { return &driftTimer{cm: cm} },
	}
	var groups [][]poolCase
	for _, shape := range []struct {
		fid   Fidelity
		plans []parallel.Plan
	}{
		{OperatorLevel, []parallel.Plan{
			{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2},
			{Tensor: 2, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2},
		}},
		{TaskLevel, []parallel.Plan{
			{Tensor: 1, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
			{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, GradientBuckets: 2},
		}},
		{OperatorLevel, []parallel.Plan{
			{Tensor: 2, Data: 2, Pipeline: 4, MicroBatch: 1, GlobalBatch: 32, GradientBuckets: 2},
			{Tensor: 1, Data: 4, Pipeline: 4, MicroBatch: 1, GlobalBatch: 64, GradientBuckets: 2},
		}},
	} {
		g, prof := lowerOn(t, tinyModel(), shape.plans[0], c, shape.fid)
		var group []poolCase
		for _, plan := range shape.plans {
			for _, timer := range timers {
				group = append(group, poolCase{g: g, bind: func() *DurationTable { return g.Bind(prof, timer(), plan, c) }})
			}
		}
		groups = append(groups, group)
	}
	for i, n := range []int{3, 60, 900, 6000} {
		g := lockdownHandBuilt(int64(10+i), n, 1+i)
		groups = append(groups, []poolCase{{g: g, bind: func() *DurationTable { return bindEager(g) }}})
	}

	for _, group := range groups {
		for i := range group {
			pc := &group[i]
			freshPools()
			res, spans, err := pc.g.ReplayTraceContended(pc.bind(), nil)
			if err != nil {
				t.Fatal(err)
			}
			pc.want, pc.spans = res, spans
		}
	}

	rng := rand.New(rand.NewSource(5))
	step := 0
	defer func() {
		if t.Failed() {
			t.Logf("failed at step %d", step)
		}
	}()
	for ; step < 300; step++ {
		group := groups[rng.Intn(len(groups))]
		k := []int{1, 4, 16}[rng.Intn(3)]
		lanes := make([]*poolCase, k)
		tables := make([]*DurationTable, k)
		for l := range lanes {
			lanes[l] = &group[rng.Intn(len(group))]
			tables[l] = lanes[l].bind()
		}
		g := lanes[0].g
		if k == 1 && rng.Intn(2) == 0 {
			res, spans, err := g.ReplayTraceContended(tables[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, 0, res, lanes[0].want)
			if !slices.Equal(spans, lanes[0].spans) {
				t.Fatal("timeline differs from the fresh-pool replay")
			}
		} else {
			got, err := g.ReplayBatchContended(tables, nil)
			if err != nil {
				t.Fatal(err)
			}
			for l := range got {
				requireIdentical(t, l, got[l], lanes[l].want)
			}
		}
		for _, l := range rng.Perm(k) {
			tables[l].Release()
		}
	}

	// The lane matrix sheds under the same policy, on its own counter:
	// after a width-16 task-row batch on the 6,000-task graph, exactly
	// shrinkAfter descriptor-row batches (comm.Model lanes on the largest
	// structural graph) bring it within 4x their request.
	var sc batchScratch
	fill := func(pc poolCase) {
		tables := make([]*DurationTable, 16)
		for l := range tables {
			tables[l] = pc.bind()
		}
		sc.reset(pc.g.NumTasks(), pc.g.Devices, len(pc.g.classes), len(tables))
		sc.fillMatrix(tables)
		for _, tbl := range tables {
			tbl.Release()
		}
	}
	fill(groups[len(groups)-1][0])
	for i := 1; i <= shrinkAfter; i++ {
		fill(groups[2][0])
		if shed := cap(sc.m) <= 4*len(sc.m); shed != (i == shrinkAfter) {
			t.Fatalf("descriptor-row batch %d: matrix capacity %d for %d entries (shed %v, want %v)",
				i, cap(sc.m), len(sc.m), shed, i == shrinkAfter)
		}
	}
}

// TestIdentityIndexConcurrentGrowth binds per-task tables of growing sizes
// from several goroutines at once, starting from an empty identity index,
// so the shared index grows while other tables gather through it. Run it
// under -race.
func TestIdentityIndexConcurrentGrowth(t *testing.T) {
	graphs := make([]*Graph, 6)
	want := make([]Result, len(graphs))
	for i := range graphs {
		graphs[i] = lockdownHandBuilt(int64(20+i), 50<<i, 2)
		tbl := bindEager(graphs[i])
		res, err := graphs[i].ReplayContended(tbl, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	identity.Lock()
	identity.idx = nil
	identity.Unlock()

	errs := make([]error, 8)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range graphs {
				j := (i + w) % len(graphs)
				tbl := bindEager(graphs[j])
				res, err := graphs[j].ReplayContended(tbl, nil)
				tbl.Release()
				if err == nil && (res.IterTime != want[j].IterTime || res.FLOPs != want[j].FLOPs) {
					err = fmt.Errorf("graph %d: result differs from the sequential replay", j)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
