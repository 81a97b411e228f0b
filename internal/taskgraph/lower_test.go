package taskgraph

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// TestOperatorLowerFastPathMatchesBuilder pins the operator-level fast path
// to the builder-based reference lowering: every slice of the structural
// graph — tasks, CSR adjacency, class and descriptor tables — must match
// exactly, across schedules, interleaving, uneven layer splits, and
// recomputation — and both must rebuild the source build's label table.
func TestOperatorLowerFastPathMatchesBuilder(t *testing.T) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	plans := []parallel.Plan{
		{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2},
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
		{Tensor: 1, Data: 2, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, Schedule: parallel.GPipe},
		{Tensor: 2, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 16, Recompute: true},
		{Tensor: 1, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, VirtualStages: 2},
	}
	for _, plan := range plans {
		og, err := opgraph.Build(tinyModel(), plan, c)
		if err != nil {
			t.Fatal(err)
		}
		fast := lowerOperatorLevel(og)
		ref := lowerBuilder(og, prof, OperatorLevel)

		if got, want := fast.NumTasks(), ref.NumTasks(); got != want {
			t.Fatalf("plan %s: %d tasks, want %d", plan, got, want)
		}
		check := func(name string, got, want any) {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("plan %s: %s = %v, want %v", plan, name, got, want)
			}
		}
		check("Devices", fast.Devices, ref.Devices)
		check("Model", fast.Model, ref.Model)
		check("childStart", fast.childStart, ref.childStart)
		check("children", fast.children, ref.children)
		check("indeg", fast.indeg, ref.indeg)
		check("roots", fast.roots, ref.roots)
		check("classes", fast.classes, ref.classes)
		check("classOf", fast.classOf, ref.classOf)
		check("descs", fast.descs, ref.descs)
		check("durIdx", fast.durIdx, ref.durIdx)
		check("slotOf", fast.slotOf, ref.slotOf)
		check("sources", fast.sources, ref.sources)
		check("nLabels", fast.nLabels, ref.nLabels)
		// Labels are rebuilt on demand: compare the materialized tables,
		// and pin them to the source build's own label table.
		want := og.LabelTable()
		if fast.Labels() == nil {
			t.Fatalf("plan %s: fast path lost the label records", plan)
		}
		check("Labels", fast.Labels(), ref.Labels())
		check("Labels vs source", fast.Labels(), want)
	}
}

// TestLazyLabelsSingleFlight: a freshly lowered graph, at either fidelity,
// carries no label table. Eight goroutines rendering every task label at
// once must run its label source exactly once — the source rebuilds the
// operator graph through the construction pools, so -race checks that
// path too — and every goroutine must see the operator graph's labels,
// even though that graph was recycled right after lowering.
func TestLazyLabelsSingleFlight(t *testing.T) {
	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8,
		GradientBuckets: 2, Recompute: true}
	for _, fid := range []Fidelity{OperatorLevel, TaskLevel} {
		og, err := opgraph.Build(tinyModel(), plan, c)
		if err != nil {
			t.Fatal(err)
		}
		g := Lower(og, prof, fid)
		want := make([]string, og.NumNodes())
		for id := range want {
			want[id] = og.Label(id)
		}
		og.Recycle()
		if g.labels != nil || g.LabelCount() != len(want) {
			t.Fatalf("fid %v: lowered graph has resident labels %v, count %d; want none, %d",
				fid, g.labels != nil, g.LabelCount(), len(want))
		}

		src := g.labelSrc
		var runs atomic.Int32
		g.labelSrc = func() *opgraph.LabelTable {
			runs.Add(1)
			return src()
		}
		const workers = 8
		start := make(chan struct{})
		bad := make(chan string, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for id := 0; id < g.NumTasks(); id++ {
					if got := g.TaskLabel(id); got != want[g.source(id)] {
						bad <- got
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(bad)
		if got, ok := <-bad; ok {
			t.Fatalf("fid %v: concurrent TaskLabel rendered %q", fid, got)
		}
		if n := runs.Load(); n != 1 {
			t.Fatalf("fid %v: label source ran %d times, want exactly 1", fid, n)
		}
	}
}

// stripMarker hides a stateless timer's StatelessComm marker, forcing Bind
// onto the per-task pricing path a stateful timer takes.
type stripMarker struct{ CommTimer }

// TestBindStatelessMatchesStateful pins descriptor-granularity
// communication pricing to the per-task path: each stateless timer, and the
// same timer behind stripMarker, must bind bit-identical (duration, FLOPs)
// per task and replay to bit-identical results, at both fidelities.
// comm.Calibrated is a pure function of its fixed correction factors;
// before it carried the marker, binding silently priced its collectives
// once per task (the validate.RunCalibrated path).
func TestBindStatelessMatchesStateful(t *testing.T) {
	c := hw.PaperCluster(8)
	plan := parallel.Plan{Tensor: 4, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2}
	cm := comm.NewModel(c)
	for _, tc := range []struct {
		name  string
		timer StatelessCommTimer
	}{
		{"model", cm},
		{"calibrated", comm.DefaultCalibration(cm, plan.Tensor)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, fid := range []Fidelity{OperatorLevel, TaskLevel} {
				g, prof := lowerOn(t, tinyModel(), plan, c, fid)
				fast := g.Bind(prof, tc.timer, plan, c)
				defer fast.Release()
				slow := g.Bind(prof, stripMarker{tc.timer}, plan, c)
				defer slow.Release()
				if len(fast.vals) != len(g.descs) {
					t.Fatalf("fidelity %d: stateless bind priced %d entries, want one per descriptor (%d)", fid, len(fast.vals), len(g.descs))
				}
				if len(slow.vals) != g.NumTasks() {
					t.Fatalf("fidelity %d: marker-less bind priced %d entries, want one per task (%d)", fid, len(slow.vals), g.NumTasks())
				}
				for id := 0; id < g.NumTasks(); id++ {
					if f, s := fast.vals[fast.idx[id]], slow.vals[slow.idx[id]]; f != s {
						t.Fatalf("fidelity %d task %d: stateless bind %+v != per-task bind %+v", fid, id, f, s)
					}
				}
				a, err := g.ReplayContended(fast, nil)
				if err != nil {
					t.Fatal(err)
				}
				b, err := g.ReplayContended(slow, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, 0, a, b)
			}
		})
	}
}
