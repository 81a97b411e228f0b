package taskgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/gpu"
	"vtrain/internal/hw"
	"vtrain/internal/opgraph"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// replayLockdownDigest is the SHA-256 of every result float and span of the
// replay lockdown matrix below, captured while replay still had three loop
// bodies (scalar, width-1, lanes) and three duration sources (descriptor
// gather, per-task columns, eager Task values). It pins the paths no other
// digest or golden sees: hand-built graphs replayed from their eager
// durations, per-task bindings through stateful (marker-less) timers at
// both fidelities, and batches mixing both kinds of binding at widths 1, 4,
// and 16.
const replayLockdownDigest = "952b934c5f0a4f2af0275f98737156be214ba801fa880bd5f5643970bc69acda"

// driftTimer is a genuinely stateful timer: each price depends on how many
// calls came before it, so the digest also pins Bind's per-task call order.
type driftTimer struct {
	cm    CommTimer
	calls int
}

func (d *driftTimer) drift() float64 { d.calls++; return 1 + 1e-3*float64(d.calls%13) }

func (d *driftTimer) AllReduce(bytes float64, n int, intraNode bool) float64 {
	return d.cm.AllReduce(bytes, n, intraNode) * d.drift()
}

func (d *driftTimer) SendRecv(bytes float64, sameNode bool) float64 {
	return d.cm.SendRecv(bytes, sameNode) * d.drift()
}

// lockdownHandBuilt returns a seeded random DAG of eager tasks: mixed
// streams and devices, zero durations, duplicate edges, eager labels and
// kernel names on some tasks, and (for even seeds) a lazy labeler.
func lockdownHandBuilt(seed int64, n, devices int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	classes := []string{"FwdMHA", "BwdFFN", "AllReduceTP", "P2P"}
	b := NewBuilder(devices)
	for i := 0; i < n; i++ {
		tk := Task{
			Device:   rng.Intn(devices),
			Stream:   Stream(rng.Intn(2)),
			Duration: rng.ExpFloat64() * 1e-3,
			Source:   i / 2,
			Class:    classes[rng.Intn(len(classes))],
		}
		if tk.Stream == ComputeStream {
			tk.FLOPs = rng.Float64() * 1e12
		}
		if rng.Intn(10) == 0 {
			tk.Duration = 0
		}
		if rng.Intn(3) == 0 {
			tk.Label = fmt.Sprintf("op%d", i)
		}
		if rng.Intn(4) == 0 {
			tk.Kernel = fmt.Sprintf("k%d", rng.Intn(5))
		}
		b.AddTask(tk)
		for e := rng.Intn(4); e > 0 && i > 0; e-- {
			b.AddEdge(rng.Intn(i), i)
		}
	}
	if seed%2 == 0 {
		b.SetLabeler(func(src int) string { return fmt.Sprintf("src%d", src) })
	}
	return b.Build()
}

// lockdownTrace replays g under tbl with span capture.
func lockdownTrace(t *testing.T, g *Graph, tbl *DurationTable) (Result, []Span) {
	t.Helper()
	res, spans, err := g.ReplayTraceContended(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, spans
}

// lockdownPlain replays g under tbl without span capture.
func lockdownPlain(t *testing.T, g *Graph, tbl *DurationTable) Result {
	t.Helper()
	res, err := g.ReplayContended(tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// lockdownBatch replays g under every table in one ideal batch.
func lockdownBatch(t *testing.T, g *Graph, tables []*DurationTable) []Result {
	t.Helper()
	res, err := g.ReplayBatchContended(tables, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func hashSpans(h hash.Hash, spans []Span) {
	hashInt(h, len(spans))
	for _, sp := range spans {
		hashInt(h, sp.Device)
		hashInt(h, int(sp.Stream))
		hashFloat(h, sp.Start)
		hashFloat(h, sp.End)
		h.Write([]byte(sp.Label))
	}
}

// lockdownWidths replays tables as batches of width 1, 4, and 16 (lanes
// cycle through tables), requires every lane to match want, and hashes it.
func lockdownWidths(t *testing.T, h hash.Hash, g *Graph, tables []*DurationTable, want []Result) {
	t.Helper()
	for _, k := range []int{1, 4, 16} {
		batch := make([]*DurationTable, k)
		for l := range batch {
			batch[l] = tables[l%len(tables)]
		}
		for l, res := range lockdownBatch(t, g, batch) {
			requireIdentical(t, l, res, want[l%len(want)])
			hashResult(h, res)
		}
	}
}

// TestReplayLockdownDigest pins replay on hand-built eager graphs, on
// per-task bindings through marker-stripped and call-order-dependent
// timers at operator and task fidelity, and on batches of width 1, 4, and
// 16 that mix descriptor and per-task lanes. Every replay is hashed bit for
// bit, spans and labels included.
func TestReplayLockdownDigest(t *testing.T) {
	h := sha256.New()

	for i, sz := range []struct{ n, devices int }{{1, 1}, {7, 2}, {300, 4}, {2000, 3}} {
		g := lockdownHandBuilt(int64(i), sz.n, sz.devices)
		tbl := bindEager(g)
		res, spans := lockdownTrace(t, g, tbl)
		plain := lockdownPlain(t, g, tbl)
		requireIdentical(t, 0, plain, res)
		hashResult(h, res)
		hashSpans(h, spans)
		lockdownWidths(t, h, g, []*DurationTable{tbl}, []Result{res})
		tbl.Release()
	}

	c := hw.PaperCluster(8)
	prof := profiler.New(gpu.NewDevice(c.Node.GPU))
	plans := []parallel.Plan{
		{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2},
		{Tensor: 1, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 4, Data: 1, Pipeline: 2, MicroBatch: 2, GlobalBatch: 8, GradientBuckets: 2},
	}
	for _, fid := range []Fidelity{OperatorLevel, TaskLevel} {
		og, err := opgraph.Build(tinyModel(), plans[0], c)
		if err != nil {
			t.Fatal(err)
		}
		g := Lower(og, prof, fid)
		var tables []*DurationTable
		var want []Result
		for _, plan := range plans {
			cm := comm.NewModel(c)
			cal := comm.DefaultCalibration(cm, plan.Tensor)
			for _, timer := range []CommTimer{
				cm,
				stripMarker{cm},
				stripMarker{cal},
				&driftTimer{cm: cm},
			} {
				tbl := g.Bind(prof, timer, plan, c)
				defer tbl.Release()
				res, spans := lockdownTrace(t, g, tbl)
				requireIdentical(t, 0, lockdownPlain(t, g, tbl), res)
				hashResult(h, res)
				hashSpans(h, spans)
				tables = append(tables, tbl)
				want = append(want, res)
			}
		}
		lockdownWidths(t, h, g, tables, want)
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != replayLockdownDigest {
		t.Fatalf("replay lockdown digest %s, want %s — replay changed results on hand-built graphs, per-task bindings, or batches",
			got, replayLockdownDigest)
	}
}
