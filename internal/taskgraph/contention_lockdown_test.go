package taskgraph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"

	"vtrain/internal/comm"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
)

// contentionLockdownDigest is the SHA-256 of every contended span and
// result float of the lockdown matrix below, captured from the
// epoch-bucketed Fenwick ledger before the per-slot run ledger replaced it.
// The cluster-sweep digest never exercises these paths: the hardware
// catalog's spine is non-blocking (spine weight 0) and its sweeps never put
// a collective across more nodes than one leaf holds.
const contentionLockdownDigest = "d67a45ef1702a9a5146db9af60a8d9c7823f3177dbb113e39024a06120bf8988"

// lockdownModel has 16 heads so tensor parallelism can span four 4-GPU
// nodes, and 8 layers for 4-stage pipelines.
func lockdownModel() model.Config {
	return model.Config{Name: "lockdown", Hidden: 512, Layers: 8, SeqLen: 128, Heads: 16, Vocab: 4096}
}

// lockdownClusters returns the topology matrix: 8- and 4-GPU nodes, one and
// four HCAs per node, and a 3:1 oversubscribed spine over 2-node leaves —
// so cross-leaf P2P transfers and wide collectives pay spine derating.
// spine=false returns the same clusters on a non-blocking spine.
func lockdownClusters(spine bool) []hw.Cluster {
	var cs []hw.Cluster
	for _, gpn := range []int{8, 4} {
		for _, links := range []int{1, 4} {
			c := hw.PaperCluster(32)
			c.Node.GPUsPerNode = gpn
			c.NetworkLinks = links
			c.NodesPerLeaf = 2
			c.Oversubscription = 3
			if !spine {
				c.Oversubscription = 1
			}
			cs = append(cs, c)
		}
	}
	return cs
}

// lockdownPlans covers cross-node and cross-leaf P2P (one node per stage
// at stride 8 on 8-GPU nodes, two nodes per stage on 4-GPU nodes), data
// parallelism spanning four nodes (spine-crossing collectives), and tensor
// parallelism wider than a node (t=8 and t=16 on 4-GPU nodes).
func lockdownPlans() []parallel.Plan {
	return []parallel.Plan{
		{Tensor: 2, Data: 4, Pipeline: 4, MicroBatch: 1, GlobalBatch: 16, GradientBuckets: 2},
		{Tensor: 1, Data: 32, Pipeline: 2, MicroBatch: 1, GlobalBatch: 64, GradientBuckets: 2},
		{Tensor: 8, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 1},
		{Tensor: 16, Data: 1, Pipeline: 2, MicroBatch: 1, GlobalBatch: 4},
	}
}

type lockdownCase struct {
	plan parallel.Plan
	fid  Fidelity
}

// lockdownCases replays every plan at operator fidelity, and the first at
// task fidelity too, whose finer comm tasks crowd the ledgers.
func lockdownCases() []lockdownCase {
	var cs []lockdownCase
	for i, plan := range lockdownPlans() {
		cs = append(cs, lockdownCase{plan, OperatorLevel})
		if i == 0 {
			cs = append(cs, lockdownCase{plan, TaskLevel})
		}
	}
	return cs
}

func hashFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func hashInt(h hash.Hash, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// hashResult folds every float of res, bit for bit, into h (classes in
// name order).
func hashResult(h hash.Hash, res Result) {
	hashFloat(h, res.IterTime)
	hashFloat(h, res.FLOPs)
	hashInt(h, res.Executed)
	for d := range res.ComputeBusy {
		hashFloat(h, res.ComputeBusy[d])
		hashFloat(h, res.CommBusy[d])
	}
	names := make([]string, 0, len(res.ClassSeconds))
	for name := range res.ClassSeconds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h.Write([]byte(name))
		hashFloat(h, res.ClassSeconds[name])
	}
}

// TestContentionLockdownDigest pins contended replay on the topology
// features the sweep digest cannot see: spine derating, multi-HCA nodes,
// cross-leaf P2P, and collectives spanning several nodes. Every plan is
// lowered once and bound on every cluster of the matrix; each binding is
// replayed with a full trace, and the cluster lanes are replayed again as
// contended batches of width 1, 4, and 16. The test also checks that the
// matrix really exercises what it claims: the oversubscribed spine and the
// HCA count must each change some contended result.
func TestContentionLockdownDigest(t *testing.T) {
	m := lockdownModel()
	clusters := lockdownClusters(true)
	flat := lockdownClusters(false)
	h := sha256.New()
	spineMatters, linksMatter := false, false
	for _, lp := range lockdownCases() {
		plan := lp.plan
		g, prof := lowerOn(t, m, plan, clusters[0], lp.fid)
		tables := make([]*DurationTable, len(clusters))
		cts := make([]*ContentionTable, len(clusters))
		seq := make([]Result, len(clusters))
		for i, c := range clusters {
			if err := plan.Validate(m, c); err != nil {
				t.Fatalf("plan %s on %d-GPU nodes: %v", plan, c.Node.GPUsPerNode, err)
			}
			tables[i] = g.Bind(prof, comm.NewModel(c), plan, c)
			defer tables[i].Release()
			cts[i] = g.BindContention(plan, c, tables[i])
			res, spans, err := g.ReplayTraceContended(tables[i], cts[i])
			if err != nil {
				t.Fatal(err)
			}
			seq[i] = res
			hashResult(h, res)
			for _, sp := range spans {
				hashInt(h, sp.Device)
				hashInt(h, int(sp.Stream))
				hashFloat(h, sp.Start)
				hashFloat(h, sp.End)
				h.Write([]byte(sp.Label))
			}

			flatRes, err := g.ReplayContended(tables[i], g.BindContention(plan, flat[i], tables[i]))
			if err != nil {
				t.Fatal(err)
			}
			if flatRes.IterTime != res.IterTime {
				spineMatters = true
			}
		}
		// clusters alternate 1 and 4 HCAs per node at fixed node size.
		for i := 0; i+1 < len(seq); i += 2 {
			if seq[i].IterTime != seq[i+1].IterTime {
				linksMatter = true
			}
		}
		for _, k := range []int{1, 4, 16} {
			wt := make([]*DurationTable, k)
			wc := make([]*ContentionTable, k)
			for l := range wt {
				wt[l], wc[l] = tables[l%len(tables)], cts[l%len(cts)]
			}
			got, err := g.ReplayBatchContended(wt, wc)
			if err != nil {
				t.Fatalf("plan %s width %d: %v", plan, k, err)
			}
			for l := range got {
				requireIdentical(t, l, got[l], seq[l%len(seq)])
				hashResult(h, got[l])
			}
		}
	}
	if !spineMatters {
		t.Error("no plan's contended result depends on spine oversubscription: the matrix does not exercise spine derating")
	}
	if !linksMatter {
		t.Error("no plan's contended result depends on the HCA count: the matrix does not exercise multi-HCA derating")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != contentionLockdownDigest {
		t.Fatalf("contention lockdown digest %s, want %s — contended replay changed results on spine/multi-HCA topologies",
			got, contentionLockdownDigest)
	}
}

// TestContentionLinkTable pins the bind-time link table: for every
// descriptor and stage of lowered graphs over a grid of plans and clusters
// (4- and 8-GPU nodes, tensor parallelism wider than a node, leaves of one
// and two nodes, blocking and non-blocking spines), the linkSet equals
// what comm.CollectivePath and comm.SendRecvPath resolve for a task of that
// descriptor on that stage — the per-task resolution replay used to
// perform.
func TestContentionLinkTable(t *testing.T) {
	m := lockdownModel()
	var clusters []hw.Cluster
	for _, gpn := range []int{4, 8} {
		for _, leaf := range []int{1, 2, 0} {
			for _, over := range []float64{1, 3} {
				c := hw.PaperCluster(64)
				c.Node.GPUsPerNode = gpn
				c.NodesPerLeaf = leaf
				c.Oversubscription = over
				clusters = append(clusters, c)
			}
		}
	}
	classOf := func(node int, class func(int) int) int32 {
		if node < 0 {
			return 0
		}
		return int32(class(node))
	}
	var sawNV, sawTwoHCA, sawSpine bool
	for _, tp := range []int{1, 2, 8, 16} {
		for _, dp := range []int{1, 4} {
			for _, pp := range []int{1, 2, 4} {
				plan := parallel.Plan{Tensor: tp, Data: dp, Pipeline: pp, MicroBatch: 1, GlobalBatch: 4 * dp, GradientBuckets: 2}
				g, _ := lowerOn(t, m, plan, clusters[0], OperatorLevel)
				for _, c := range clusters {
					if plan.Validate(m, c) != nil {
						continue
					}
					gpn, stride := c.Node.GPUsPerNode, tp*dp
					cg := comm.NewCongestion(c)
					ct := g.BindContention(plan, c, nil)
					for di := range g.descs {
						d := &g.descs[di]
						for stage := 0; stage < g.Devices; stage++ {
							var p comm.Path
							switch d.kind {
							case descAllReduceTP, descAllReduceDP:
								n, intra := allReduceTPArgs(plan, gpn)
								if d.kind == descAllReduceDP {
									n, intra = allReduceDPArgs(plan, gpn)
								}
								if intra {
									n = 1
								}
								p = cg.CollectivePath(stage*stride/gpn, n)
							case descP2P:
								p = cg.SendRecvPath(int(d.from)*stride/gpn, int(d.to)*stride/gpn)
							default:
								p = comm.Path{NVNode: -1, HCANodes: [2]int{-1, -1}}
							}
							want := linkSet{
								nv:    classOf(p.NVNode, nvClass),
								hca:   [2]int32{classOf(p.HCANodes[0], hcaClass), classOf(p.HCANodes[1], hcaClass)},
								spine: p.Spine,
							}
							got := ct.links[di*ct.devices+stage]
							if got != want {
								t.Fatalf("plan %s, %d-GPU nodes, %d per leaf, %gx spine: desc %d (kind %d) stage %d: link set %+v, want %+v from path %+v",
									plan, gpn, c.NodesPerLeaf, c.Oversubscription, di, d.kind, stage, got, want, p)
							}
							for _, cl := range []int32{got.nv, got.hca[0], got.hca[1]} {
								if int(cl) >= ct.classes {
									t.Fatalf("plan %s: class %d outside the table's %d classes", plan, cl, ct.classes)
								}
							}
							sawNV = sawNV || got.nv != 0
							sawTwoHCA = sawTwoHCA || got.hca[1] != 0
							sawSpine = sawSpine || got.spine
						}
					}
				}
			}
		}
	}
	if !sawNV || !sawTwoHCA || !sawSpine {
		t.Fatalf("grid misses a link kind: NVSwitch %v, two-HCA transfer %v, spine %v", sawNV, sawTwoHCA, sawSpine)
	}
}
