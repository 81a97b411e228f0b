package opgraph

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
)

// snapshot is a graph's composed content: every node and its dependencies.
type snapshot struct {
	nodes []Node
	deps  [][]int32
}

func snap(g *Graph) snapshot {
	s := snapshot{nodes: make([]Node, g.NumNodes()), deps: make([][]int32, g.NumNodes())}
	for id := range s.nodes {
		s.nodes[id] = g.Node(id)
		s.deps[id] = slices.Clone(g.Deps(id))
	}
	return s
}

// diff reports the first difference between g and the reference snapshot.
func (s snapshot) diff(g *Graph) error {
	if g.NumNodes() != len(s.nodes) {
		return fmt.Errorf("%d nodes, want %d", g.NumNodes(), len(s.nodes))
	}
	for id, want := range s.nodes {
		if got := g.Node(id); got != want {
			return fmt.Errorf("node %d = %+v, want %+v", id, got, want)
		}
		if got := g.Deps(id); !slices.Equal(got, s.deps[id]) {
			return fmt.Errorf("node %d deps = %v, want %v", id, got, s.deps[id])
		}
		if got, want := g.Label(id), want.Label(); got != want {
			return fmt.Errorf("node %d label = %q, want %q", id, got, want)
		}
	}
	return nil
}

// buildFresh builds with a new builder into a new graph, bypassing both
// construction pools: the reference a pooled build must reproduce.
func buildFresh(t *testing.T, m model.Config, plan parallel.Plan, c hw.Cluster) *Graph {
	t.Helper()
	if err := Validate(m, plan, c); err != nil {
		t.Fatal(err)
	}
	b := newBuilder(new(builder), new(Graph), m, plan, c)
	b.build()
	return b.g
}

// TestBuildPoolSequences runs seeded sequences of Build and Recycle over
// small, large, and interleaved plans of two models — so pooled columns,
// CSR slices, per-stage tables, and builder scratch are reused across very
// different sizes in both directions — and requires every graph to match a
// build from fresh pools node for node and dependency for dependency. Some
// graphs stay live across later builds and are re-checked before they are
// recycled: a pooled build must never write into storage a live graph
// still owns.
func TestBuildPoolSequences(t *testing.T) {
	small := model.Config{Name: "small", Hidden: 256, Layers: 4, SeqLen: 128, Heads: 4, Vocab: 1024}
	large := model.Config{Name: "large", Hidden: 512, Layers: 16, SeqLen: 64, Heads: 16, Vocab: 2048}
	type tc struct {
		m    model.Config
		plan parallel.Plan
		c    hw.Cluster
	}
	cases := []tc{
		{small, parallel.Plan{Tensor: 1, Data: 1, Pipeline: 1, MicroBatch: 1, GlobalBatch: 2}, hw.PaperCluster(1)},
		{small, parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8,
			GradientBuckets: 2, Recompute: true, Schedule: parallel.GPipe}, hw.PaperCluster(1)},
		{large, parallel.Plan{Tensor: 2, Data: 4, Pipeline: 4, MicroBatch: 1, GlobalBatch: 64,
			GradientBuckets: 4, Recompute: true}, hw.PaperCluster(4)},
		{large, parallel.Plan{Tensor: 16, Data: 1, Pipeline: 8, MicroBatch: 2, GlobalBatch: 64}, hw.PaperCluster(16)},
		{large, parallel.Plan{Tensor: 1, Data: 2, Pipeline: 4, MicroBatch: 1, GlobalBatch: 32,
			GradientBuckets: 2, VirtualStages: 2}, hw.PaperCluster(1)},
		{small, parallel.Plan{Tensor: 1, Data: 4, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8,
			GradientBuckets: 4, VirtualStages: 2}, hw.PaperCluster(1)},
	}
	refs := make([]snapshot, len(cases))
	for i, k := range cases {
		refs[i] = snap(buildFresh(t, k.m, k.plan, k.c))
	}

	type live struct {
		g   *Graph
		ref int
	}
	rng := rand.New(rand.NewPCG(14, 2024))
	var held []live
	for step := 0; step < 200; step++ {
		i := rng.IntN(len(cases))
		k := cases[i]
		g, err := Build(k.m, k.plan, k.c)
		if err != nil {
			t.Fatal(err)
		}
		if err := refs[i].diff(g); err != nil {
			t.Fatalf("step %d (%s %s): %v", step, k.m.Name, k.plan, err)
		}
		held = append(held, live{g, i})
		// Recycle a random live graph (often the one just built) once a
		// few are held, re-checking it first.
		for len(held) > 0 && (len(held) > 3 || rng.IntN(2) == 0) {
			j := rng.IntN(len(held))
			h := held[j]
			if err := refs[h.ref].diff(h.g); err != nil {
				t.Fatalf("step %d: live graph of case %d changed under later builds: %v", step, h.ref, err)
			}
			h.g.Recycle()
			held = slices.Delete(held, j, j+1)
		}
	}
}
