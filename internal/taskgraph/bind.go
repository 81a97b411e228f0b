package taskgraph

import (
	"fmt"
	"slices"
	"sync"

	"vtrain/internal/hw"
	"vtrain/internal/parallel"
	"vtrain/internal/profiler"
)

// descKind classifies duration descriptors.
type descKind uint8

const (
	// descOperator prices a whole computation operator (the summed kernel
	// durations — operator-level fidelity, or a single-kernel operator).
	descOperator descKind = iota
	// descKernel prices one kernel of a multi-kernel operator.
	descKernel
	// descAllReduceTP prices the tensor-parallel activation All-Reduce.
	descAllReduceTP
	// descAllReduceDP prices one data-parallel gradient-bucket All-Reduce.
	descAllReduceDP
	// descP2P prices a pipeline Send-Receive between two stages.
	descP2P
)

// durDesc is one entry of a structural graph's duration-descriptor table:
// everything needed to price a task for any plan sharing the graph's shape,
// expressed in shape-invariant terms. Descriptors are value-comparable and
// deduplicated during lowering, so the table stays tiny (one entry per
// operator kind / kernel index / stage-parameter class / stage pair) even
// for graphs with tens of thousands of tasks.
type durDesc struct {
	kind descKind
	// op is the computation operator kind (descOperator, descKernel).
	op profiler.OpKind
	// kernel is the kernel index within the operator (descKernel).
	kernel int32
	// stageParams is the unsharded parameter count of the task's pipeline
	// stage (WeightUpdate operators and gradient All-Reduces); the bound
	// plan's tensor width derives the shard from it.
	stageParams uint64
	// buckets is the gradient-bucket count of the stage (descAllReduceDP).
	buckets int32
	// from and to are the producer and consumer stages (descP2P), from
	// which binding derives node placement for the bound plan.
	from, to int32
}

// descVal is one priced entry of a DurationTable: the duration and FLOPs of
// every task that gathers it under one plan.
type descVal struct{ dur, flops float64 }

// DurationTable holds the per-plan numbers of one (structural graph, plan)
// binding. Replay reads task id's values as vals[idx[id]] and nothing else.
// A stateless binding — the sweep hot path — prices one entry per
// *descriptor* (a few dozen entries that live in L1) and gathers through
// the graph's durIdx slab, so binding never touches a per-task array.
// Stateful communication timers and hand-built graphs price one entry per
// task, because their values genuinely vary per task, and gather through
// the shared identity index. Either way the table is read-only during
// replay, so one shared structural graph can be bound to many plans and
// replayed concurrently.
type DurationTable struct {
	vals []descVal
	idx  []int32

	// Binding context, retained so trace capture can resolve the
	// plan-dependent parts of task labels (kernel symbols embed tensor
	// shapes) lazily.
	prof *profiler.Profiler
	plan parallel.Plan

	// oversized counts consecutive pooled reuses whose capacity exceeded 4x
	// the request (see wantShrink).
	oversized int8
}

// Duration returns the bound execution time of task id in seconds.
func (t *DurationTable) Duration(id int) float64 { return t.vals[t.idx[id]].dur }

// Len returns the number of bound tasks.
func (t *DurationTable) Len() int { return len(t.idx) }

// DurationError reports a bound duration replay cannot run: a negative or
// NaN value would move a slot's clock backward or poison it. Table is the
// table's index in the replayed batch (0 for a single replay), so a batch
// caller can blame the lane's plan.
type DurationError struct {
	Table int
	Task  int
	Dur   float64
}

func (e *DurationError) Error() string {
	return fmt.Sprintf("taskgraph: duration table %d binds task %d a duration of %v s; replay needs durations >= 0",
		e.Table, e.Task, e.Dur)
}

// check returns a *DurationError naming table index i if a task's bound
// duration is negative or NaN. The fast scan reads the table's entries — a
// few dozen for a descriptor binding — and only a bad entry pays for the
// per-task search that names the first task reading it.
func (t *DurationTable) check(i int) error {
	bad := func(d float64) bool { return !(d >= 0) }
	if !slices.ContainsFunc(t.vals, func(v descVal) bool { return bad(v.dur) }) {
		return nil
	}
	for id, j := range t.idx {
		if d := t.vals[j].dur; bad(d) {
			return &DurationError{Table: i, Task: id, Dur: d}
		}
	}
	return nil
}

// tablePool recycles DurationTables across Bind/Release cycles, keeping
// sweep workers allocation-lean: a worker that binds thousands of plans
// reuses the same slices.
var tablePool = sync.Pool{New: func() any { return new(DurationTable) }}

// fit sizes vals for n entries. Like replay scratch, capacity beyond 4x the
// request is shed per the hysteretic policy of wantShrink, so one huge
// per-task binding cannot pin worst-case storage forever.
func (t *DurationTable) fit(n int) []descVal {
	drop := wantShrink(cap(t.vals), n, &t.oversized)
	t.vals = fitRaw(t.vals, n, drop)
	return t.vals
}

// identity is the read-only iota slab per-task tables gather through. It
// grows copy-on-write — a grown slab is a fresh allocation, never a write
// into one a table may hold — so readers need no lock once they have it.
var identity struct {
	sync.Mutex
	idx []int32
}

// identityIndex returns [0, 1, ..., n-1], shared by every caller.
func identityIndex(n int) []int32 {
	identity.Lock()
	defer identity.Unlock()
	if len(identity.idx) < n {
		idx := make([]int32, max(n, 2*len(identity.idx)))
		for i := range idx {
			idx[i] = int32(i)
		}
		identity.idx = idx
	}
	return identity.idx[:n:n]
}

// Release returns the table to the binding pool. Callers that are done with
// a bound replay should release its table; using the table afterwards is a
// bug. Release is optional — an unreleased table is ordinary garbage.
func (t *DurationTable) Release() {
	if t == nil {
		return
	}
	t.prof = nil
	t.plan = parallel.Plan{}
	t.idx = nil // graph slab: do not pin the graph through the pool
	tablePool.Put(t)
}

// ceilDiv is ceiling integer division for positive operands.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// allReduceTPArgs returns the (participants, intraNode) a tensor-parallel
// activation All-Reduce presents to the communication model. A group wider
// than one node reduces hierarchically: ranks sharing a node combine over
// NVSwitch first, so the Eq. 1 inter-node phase rings over the
// participating *nodes* at per-node bandwidth, not over every rank.
func allReduceTPArgs(plan parallel.Plan, gpn int) (int, bool) {
	if plan.Tensor <= gpn {
		return plan.Tensor, true
	}
	return ceilDiv(plan.Tensor, gpn), false
}

// allReduceDPArgs is allReduceTPArgs for a data-parallel gradient
// All-Reduce. Under Megatron placement consecutive group members sit t
// ranks apart, so the d-member group spans ceil(d*t/gpn) nodes — but never
// more nodes than members (with t > gpn each member owns a distinct node).
func allReduceDPArgs(plan parallel.Plan, gpn int) (int, bool) {
	stride := plan.Tensor * plan.Data
	if stride <= gpn {
		return plan.Data, true
	}
	return min(plan.Data, ceilDiv(plan.Data*plan.Tensor, gpn)), false
}

// operatorFor composes the profiler operator of a compute descriptor for
// one concrete plan, reproducing exactly the parameter arithmetic the
// per-plan graph builder uses (integer shard division, minimum 1).
func (d *durDesc) operatorFor(g *Graph, plan parallel.Plan) profiler.Operator {
	op := profiler.Operator{
		Kind:       d.op,
		Model:      g.Model,
		MicroBatch: plan.MicroBatch,
		Tensor:     plan.Tensor,
	}
	if d.stageParams != 0 {
		op.Params = max(d.stageParams/uint64(plan.Tensor), 1)
	}
	return op
}

// Bind resolves the graph's duration descriptors against the profiler and
// the communication model for one concrete plan, producing the
// DurationTable replay combines with the shared structure.
//
// Binding never mutates the graph, so many goroutines may bind one shared
// structural graph concurrently — the property shape-keyed caching relies
// on. Compute descriptors are priced once per distinct descriptor (the
// profiler memoizes kernel decompositions per operator shape).
// Communication descriptors are priced the same way when cm is a
// StatelessCommTimer; otherwise communication tasks are priced individually
// in task-ID order, preserving the call sequence a from-scratch lowering
// would present to a stateful CommTimer.
//
// On a hand-built graph (no descriptors) Bind copies the tasks' eager
// durations and FLOPs; prof, cm, plan, and c are unused.
func (g *Graph) Bind(prof *profiler.Profiler, cm CommTimer, plan parallel.Plan, c hw.Cluster) *DurationTable {
	n := g.NumTasks()
	tbl := tablePool.Get().(*DurationTable)
	tbl.prof = prof
	tbl.plan = plan
	if g.descs == nil {
		vals := tbl.fit(n)
		for i := range g.Tasks {
			vals[i] = descVal{g.Tasks[i].Duration, g.Tasks[i].FLOPs}
		}
		tbl.idx = identityIndex(n)
		return tbl
	}

	// The arithmetic below mirrors the operator-graph builder exactly
	// (multiplication order included) so bound durations are bit-identical
	// to a from-scratch lowering of the same plan.
	gpn := c.Node.GPUsPerNode
	stride := plan.Tensor * plan.Data
	actBytes := 2 * float64(plan.MicroBatch) * float64(g.Model.SeqLen) * float64(g.Model.Hidden)
	commDur := func(d *durDesc) float64 {
		switch d.kind {
		case descAllReduceTP:
			n, intra := allReduceTPArgs(plan, gpn)
			return cm.AllReduce(actBytes, n, intra)
		case descAllReduceDP:
			bucketParams := d.stageParams / uint64(plan.Tensor) / uint64(d.buckets)
			n, intra := allReduceDPArgs(plan, gpn)
			return cm.AllReduce(2*float64(bucketParams), n, intra)
		default: // descP2P
			same := (int(d.from)*stride)/gpn == (int(d.to)*stride)/gpn
			return cm.SendRecv(actBytes, same)
		}
	}

	// Price the pure compute descriptors once each. A stateless timer
	// additionally lets communication descriptors be priced here — once per
	// distinct descriptor instead of once per task; a stateful timer keeps
	// the per-task call sequence (see CommTimer), writing n per-task entries
	// in front of the descriptor prices they copy compute values from.
	_, stateless := cm.(StatelessCommTimer)
	off := n
	if stateless {
		off = 0
	}
	buf := tbl.fit(off + len(g.descs))
	vals := buf[off:] // a stateful timer leaves comm entries unwritten and unread
	for i := range g.descs {
		d := &g.descs[i]
		switch d.kind {
		case descOperator:
			var dur, flops float64
			for _, k := range prof.Profile(d.operatorFor(g, plan)) {
				dur += k.Duration
				flops += k.Kernel.FLOPs
			}
			vals[i] = descVal{dur, flops}
		case descKernel:
			k := prof.Profile(d.operatorFor(g, plan))[d.kernel]
			vals[i] = descVal{k.Duration, k.Kernel.FLOPs}
		default:
			if stateless {
				vals[i] = descVal{dur: commDur(d)}
			}
		}
	}

	if stateless {
		// Every descriptor is fully priced: replay gathers through the
		// graph's durIdx slab — binding is O(#descriptors).
		tbl.idx = g.durIdx
		return tbl
	}
	tasks := buf[:n]
	for i, di := range g.durIdx {
		if d := &g.descs[di]; d.kind == descOperator || d.kind == descKernel {
			tasks[i] = vals[di]
		} else {
			tasks[i] = descVal{dur: commDur(d)}
		}
	}
	tbl.vals = tasks
	tbl.idx = identityIndex(n)
	return tbl
}

// taskLabel composes the trace label of task id under this binding: the
// structural base label qualified by the bound plan's kernel symbol for
// kernel-granularity tasks. Only trace capture calls it.
func (t *DurationTable) taskLabel(g *Graph, id int) string {
	base := g.TaskLabel(id)
	if g.descs == nil {
		return base
	}
	d := &g.descs[g.durIdx[id]]
	if d.kind != descKernel {
		return base
	}
	return base + "/" + t.prof.Profile(d.operatorFor(g, t.plan))[d.kernel].Kernel.Name
}
