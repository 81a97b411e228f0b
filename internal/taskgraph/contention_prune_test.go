package taskgraph

import (
	"crypto/sha256"
	"hash"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// pruneCase is one lowered structure of the pruning suite.
type pruneCase struct {
	m    model.Config
	plan parallel.Plan
	fid  Fidelity
	g    *Graph
	prof *profiler.Profiler
}

// pruneCases lowers the contention lockdown matrix (3:1 oversubscribed
// spine, 1 and 4 HCAs, 4- and 8-GPU nodes, cross-leaf P2P, tensor
// parallelism wider than a node), a four-stage pipeline packed onto one
// node (every stage's TP All-Reduce shares one NVSwitch, so some classes
// stay live under the bulk of comm tasks), a one-stage plan (no class has
// a second recording stage), and two catalog models, each at both
// fidelities.
func pruneCases(t *testing.T) []pruneCase {
	t.Helper()
	type spec struct {
		m    model.Config
		plan parallel.Plan
		fid  Fidelity
	}
	var specs []spec
	for _, lc := range lockdownCases() {
		specs = append(specs, spec{lockdownModel(), lc.plan, lc.fid})
	}
	packed := parallel.Plan{Tensor: 2, Data: 1, Pipeline: 4, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	single := parallel.Plan{Tensor: 4, Data: 2, Pipeline: 1, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	for _, fid := range []Fidelity{OperatorLevel, TaskLevel} {
		specs = append(specs, spec{lockdownModel(), packed, fid}, spec{lockdownModel(), single, fid})
		for _, m := range []model.Config{model.Megatron3_6B(), model.Megatron18_4B()} {
			specs = append(specs,
				spec{m, parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}, fid},
				spec{m, parallel.Plan{Tensor: 8, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 4, GradientBuckets: 1}, fid})
		}
	}
	cs := make([]pruneCase, len(specs))
	for i, s := range specs {
		g, prof := lowerOn(t, s.m, s.plan, lockdownClusters(true)[0], s.fid)
		cs[i] = pruneCase{s.m, s.plan, s.fid, g, prof}
	}
	return cs
}

// pruneClusters is the lockdown topology matrix on blocking and
// non-blocking spines.
func pruneClusters() []hw.Cluster {
	return append(lockdownClusters(true), lockdownClusters(false)...)
}

// resultDigest folds res bit for bit (and spans, when given) into a
// SHA-256, so two replays compare on every float's bits.
func resultDigest(res Result, spans []Span) [32]byte {
	var h hash.Hash = sha256.New()
	hashResult(h, res)
	hashSpans(h, spans)
	var d [32]byte
	h.Sum(d[:0])
	return d
}

// TestContentionPruningExact is the differential test of link-class
// pruning: every binding of the suite replays with pruning on
// (BindContention) and off (bindContention with prune false, which
// records and queries every class), and the two must agree on every
// Result bit and every span, at width 1 with a trace and as contended
// batches of width 4 and 16. The suite must really exercise pruning:
// some table drops a class, some keeps one under a TP All-Reduce, some
// keeps none (and so replays as an ideal lane), and some contended result
// differs from its ideal replay.
func TestContentionPruningExact(t *testing.T) {
	var dropped, heavy, ideal, derated int
	for _, pc := range pruneCases(t) {
		var (
			tables           []*DurationTable
			pruned, unpruned []*ContentionTable
			seq              []Result
		)
		for _, c := range pruneClusters() {
			if pc.plan.Validate(pc.m, c) != nil {
				continue
			}
			tbl := pc.g.Bind(pc.prof, comm.NewModel(c), pc.plan, c)
			defer tbl.Release()
			on := pc.g.BindContention(pc.plan, c, tbl)
			off := pc.g.bindContention(pc.plan, c, false)
			for i := range on.live {
				if on.live[i] != off.live[i] {
					dropped++
					break
				}
			}
			if on.heavy {
				heavy++
			}
			if on.flows == 0 {
				ideal++
			}
			gotRes, gotSpans, err := pc.g.ReplayTraceContended(tbl, on)
			if err != nil {
				t.Fatal(err)
			}
			wantRes, wantSpans, err := pc.g.ReplayTraceContended(tbl, off)
			if err != nil {
				t.Fatal(err)
			}
			if resultDigest(gotRes, gotSpans) != resultDigest(wantRes, wantSpans) {
				requireIdentical(t, 0, gotRes, wantRes)
				t.Fatalf("%s %s fid %d, %d-GPU nodes, %d HCAs, %gx spine: pruned trace differs from the unpruned one",
					pc.m.Name, pc.plan, pc.fid, c.Node.GPUsPerNode, c.NetworkLinks, c.Oversubscription)
			}
			idealRes, err := pc.g.ReplayContended(tbl, nil)
			if err != nil {
				t.Fatal(err)
			}
			if idealRes.IterTime != gotRes.IterTime {
				derated++
			}
			tables, pruned, unpruned = append(tables, tbl), append(pruned, on), append(unpruned, off)
			seq = append(seq, gotRes)
		}
		if len(tables) == 0 {
			t.Fatalf("%s %s: valid on no cluster of the matrix", pc.m.Name, pc.plan)
		}
		for _, k := range []int{4, 16} {
			wt := make([]*DurationTable, k)
			on, off := make([]*ContentionTable, k), make([]*ContentionTable, k)
			for l := range wt {
				j := (l + k) % len(tables)
				wt[l], on[l], off[l] = tables[j], pruned[j], unpruned[j]
			}
			got, err := pc.g.ReplayBatchContended(wt, on)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pc.g.ReplayBatchContended(wt, off)
			if err != nil {
				t.Fatal(err)
			}
			for l := range got {
				d := resultDigest(got[l], nil)
				if d != resultDigest(want[l], nil) || d != resultDigest(seq[(l+k)%len(tables)], nil) {
					requireIdentical(t, l, got[l], want[l])
					t.Fatalf("%s %s fid %d, width %d lane %d: pruned batch result differs", pc.m.Name, pc.plan, pc.fid, k, l)
				}
			}
		}
	}
	t.Logf("%d tables drop a class, %d keep one under a TP All-Reduce, %d keep none, %d derate IterTime",
		dropped, heavy, ideal, derated)
	if dropped == 0 || heavy == 0 || ideal == 0 || derated == 0 {
		t.Fatalf("suite misses a pruning case: %d tables drop a class, %d keep one under a TP All-Reduce, %d keep none, %d derate IterTime",
			dropped, heavy, ideal, derated)
	}
}

// TestContentionPrunedClassesHaveOneStage checks prune's verdict against a
// brute-force count over the graph's tasks: a class some comm task's link
// set names is dropped from every live row exactly when comm tasks of one
// stage alone name it, and a live row never names a class its links row
// does not. heavy must match the live rows, flows must count every comm
// task once per class its live row names, and a ledger reset for the table
// must start its arena at twice that bound.
func TestContentionPrunedClassesHaveOneStage(t *testing.T) {
	for _, pc := range pruneCases(t) {
		g := pc.g
		for _, c := range pruneClusters() {
			if pc.plan.Validate(pc.m, c) != nil {
				continue
			}
			ct := g.BindContention(pc.plan, c, nil)
			stages := make([]map[int]bool, ct.classes)
			for id, slot := range g.slotOf {
				if slot&1 != int32(CommStream) {
					continue
				}
				row := int(g.durIdx[id])*g.Devices + int(slot>>1)
				cs, n := ct.links[row].classList()
				for _, cl := range cs[:n] {
					if stages[cl] == nil {
						stages[cl] = map[int]bool{}
					}
					stages[cl][int(slot>>1)] = true
				}
			}
			var heavy bool
			flows := 0
			for id, slot := range g.slotOf {
				if slot&1 == int32(CommStream) {
					_, n := ct.live[g.commPos[int(g.durIdx[id])*g.Devices+int(slot>>1)]].classList()
					flows += n
				}
			}
			for i, r := range g.commRows {
				if int(g.commPos[r]) != i {
					t.Fatalf("commPos[%d] = %d, want %d", r, g.commPos[r], i)
				}
				all, na := ct.links[r].classList()
				live, nl := ct.live[i].classList()
				kept := map[int32]bool{}
				for _, cl := range live[:nl] {
					kept[cl] = true
				}
				for _, cl := range all[:na] {
					if n := len(stages[cl]); kept[cl] != (n >= 2) {
						t.Fatalf("%s %s, %d-GPU nodes: class %d recorded by %d stages, kept %v (row %d)",
							pc.m.Name, pc.plan, c.Node.GPUsPerNode, cl, n, kept[cl], r)
					}
					delete(kept, cl)
				}
				if len(kept) != 0 {
					t.Fatalf("%s %s: live row %d names classes %v its links row %+v does not", pc.m.Name, pc.plan, r, kept, ct.links[r])
				}
				if nl > 0 {
					heavy = heavy || g.descs[int(r)/g.Devices].kind == descAllReduceTP
				}
			}
			if flows != ct.flows || heavy != ct.heavy {
				t.Fatalf("%s %s: flow bound %d, heavy %v; live rows say %d flows, heavy %v", pc.m.Name, pc.plan, ct.flows, ct.heavy, flows, heavy)
			}
			if cs := getContState(ct); len(cs.arena) < 2*flows {
				t.Fatalf("%s %s: ledger reset to an arena of %d flows, want at least twice the bound %d", pc.m.Name, pc.plan, len(cs.arena), flows)
			} else {
				putContState(cs)
			}
		}
	}
}
