package opgraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
)

// lockdownPlans is the plan grid TestBuildLockdownDigest pins: GPipe, 1F1B
// and interleaved schedules, recompute on and off, tensor widths 1/2/16
// (16 spans two 8-GPU nodes), data widths 1 and 4 with 0/2/4 gradient
// buckets, and pipeline depths 1/2/4 (with t·d >= 8 every stage sits on
// its own node, so P2P crosses nodes). An even and an uneven layer split
// are both covered; invalid combinations are skipped by Validate.
func lockdownPlans() (models []model.Config, plans []parallel.Plan) {
	models = []model.Config{
		{Name: "lock8", Hidden: 512, Layers: 8, SeqLen: 64, Heads: 16, Vocab: 1024},
		{Name: "lock10", Hidden: 384, Layers: 10, SeqLen: 32, Heads: 16, Vocab: 768},
	}
	type sched struct {
		s parallel.Schedule
		v int
	}
	for _, sc := range []sched{{parallel.GPipe, 0}, {parallel.OneFOneB, 0}, {parallel.OneFOneB, 2}} {
		for _, rc := range []bool{false, true} {
			for _, t := range []int{1, 2, 16} {
				for _, d := range []int{1, 4} {
					buckets := []int{0}
					if d > 1 {
						buckets = []int{0, 2, 4}
					}
					for _, bk := range buckets {
						for _, p := range []int{1, 2, 4} {
							plans = append(plans, parallel.Plan{
								Tensor: t, Data: d, Pipeline: p, MicroBatch: 1, GlobalBatch: 16,
								GradientBuckets: bk, Recompute: rc, Schedule: sc.s, VirtualStages: sc.v,
							})
						}
					}
				}
			}
		}
	}
	return models, plans
}

// digestGraph hashes every composed node field and every dependency list.
func digestGraph(h hash.Hash, g *Graph) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(g.NumNodes()))
	put(uint64(g.Stages))
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Node(id)
		for _, v := range []int64{
			int64(n.ID), int64(n.Kind), int64(n.Stage), int64(n.Micro), int64(n.Chunk),
			int64(n.Layer), int64(n.LayerEnd), int64(n.Bucket), int64(n.Buckets),
			int64(n.FromStage), int64(n.Op), int64(n.Group),
		} {
			put(uint64(v))
		}
		put(n.Params)
		put(n.StageParams)
		put(math.Float64bits(n.Bytes))
		if n.IntraNode {
			put(1)
		} else {
			put(0)
		}
		h.Write([]byte(n.Label()))
		deps := g.Deps(id)
		put(uint64(len(deps)))
		for _, d := range deps {
			put(uint64(d))
		}
	}
}

// TestBuildLockdownDigest pins Build's output bit for bit across the plan
// grid above: every node's composed fields (byte counts by their float
// bits, placement, parameter counts, label) and every dependency list in
// order. The digest was captured before the node storage became columnar;
// any representation change must reproduce it unchanged.
func TestBuildLockdownDigest(t *testing.T) {
	const want = "2fd70980b8655f5d498805bcce85d64fa00c9e2c80ce098aed1b5f2bd0a4a98d"
	models, plans := lockdownPlans()
	c := hw.PaperCluster(32)
	h := sha256.New()
	built := 0
	// Placement coverage: remote (cross-node) nodes of each communication
	// kind must occur somewhere in the grid.
	remote := map[NodeKind]int{}
	for _, m := range models {
		for _, plan := range plans {
			g, err := Build(m, plan, c)
			if err != nil {
				continue
			}
			built++
			h.Write([]byte(m.Name + " " + plan.String()))
			digestGraph(h, g)
			for id := 0; id < g.NumNodes(); id++ {
				if n := g.Node(id); n.Kind != Compute && !n.IntraNode {
					remote[n.Kind]++
				}
			}
			g.Recycle()
		}
	}
	if built < 200 {
		t.Fatalf("only %d grid plans built; the grid lost coverage", built)
	}
	for _, k := range []NodeKind{AllReduceTP, AllReduceDP, P2P} {
		if remote[k] == 0 {
			t.Fatalf("grid has no cross-node %v node", k)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("build digest over %d plans = %s, want %s", built, got, want)
	}
}
