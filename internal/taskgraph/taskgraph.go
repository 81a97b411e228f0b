// Package taskgraph lowers an operator-granularity execution graph into the
// task-granularity execution graph of Section III-D and replays it with the
// event-driven simulation of Algorithm 1 to estimate single-iteration
// training time.
//
// Each computation operator is replaced by the sequence of profiled kernels
// from the operator-to-task lookup table; each communication operator
// becomes a task priced by the communication model. Every logical device
// (pipeline stage) owns two resources: a compute stream executing kernels
// in order, and a communication stream, so gradient-bucket All-Reduces can
// overlap backward computation (Fig. 5a) while tensor-parallel All-Reduces
// remain serialized through their dependency edges.
//
// # Structure vs. timing
//
// Lowering is split into two phases so design-space sweeps can share work
// across plans:
//
//   - Lower builds the structural graph: tasks, dependency edges, and a
//     compact duration descriptor per task — but no numbers. The structure
//     depends only on the plan's shape (schedule, pipeline depth,
//     micro-batch count, interleaving, layer split, fidelity), so one
//     structural graph serves every (t, d, micro-batch-size) variant of
//     that shape.
//   - Bind resolves each descriptor against the profiler and the
//     communication model for one concrete plan, producing a DurationTable
//     of priced (duration, FLOPs) entries that replay gathers per task and
//     combines with the shared structure.
//
// A lowered Graph is immutable: all per-replay state (dependency reference
// counts, earliest-start times, resource timelines) lives in a pooled
// scratch structure, and all per-plan numbers live in the DurationTable,
// so one graph can be bound and replayed repeatedly and from many
// goroutines concurrently — the property design-space sweeps rely on.
package taskgraph

import (
	"fmt"
	"sync"

	"vtrain/internal/comm"
	"vtrain/internal/model"
	"vtrain/internal/opgraph"
	"vtrain/internal/profiler"
)

// Stream selects which per-device resource a task occupies.
type Stream int

const (
	// ComputeStream executes kernels.
	ComputeStream Stream = iota
	// CommStream executes collective and point-to-point transfers.
	CommStream
)

// Fidelity selects the lowering granularity.
type Fidelity int

const (
	// TaskLevel expands every operator into its individual kernels —
	// the paper's task-granularity graph, used for validation and
	// detailed single-configuration reports.
	TaskLevel Fidelity = iota
	// OperatorLevel keeps one task per operator with the summed kernel
	// durations — bit-identical iteration times for chained kernels at a
	// fraction of the cost, used inside design-space sweeps.
	OperatorLevel
)

// Task is one vertex of the task-granularity execution graph. Tasks are
// plain values stored in the graph's arena; they carry no mutable replay
// state.
//
// Lowered (structural) graphs leave Duration, FLOPs, CommBytes, and Kernel
// at their zero values: those quantities depend on the concrete plan and
// are bound per plan into a DurationTable. The fields remain for hand-built
// graphs, whose eager values Bind copies into the table.
type Task struct {
	// ID indexes Graph.Tasks.
	ID int
	// Device is the logical device (pipeline stage).
	Device int
	// Stream is the device resource the task occupies.
	Stream Stream
	// Duration is the execution time in seconds (hand-built graphs only;
	// structural graphs bind durations per plan — see Graph.Bind).
	Duration float64
	// FLOPs is the arithmetic work (zero for communication; hand-built
	// graphs only, like Duration).
	FLOPs float64
	// CommBytes is the transfer size (zero for computation; hand-built
	// graphs only).
	CommBytes float64
	// Source is the originating operator-graph node ID.
	Source int
	// Class is the accounting bucket: the operator kind for computation
	// ("FwdMHA", "WeightUpdate", ...) or the communication kind
	// ("AllReduceTP", "AllReduceDP", "P2P").
	Class string
	// Label is an optional eager label for hand-built graphs. Lower
	// leaves it empty: lowered tasks resolve their labels lazily through
	// the source operator graph (see Graph.TaskLabel), so the simulation
	// hot path never formats a string.
	Label string
	// Kernel is an optional eager kernel name for hand-built graphs. Lower
	// leaves it empty: a structural task's kernel name depends on the bound
	// plan (kernel symbols embed tensor shapes), so traces resolve it
	// through the DurationTable.
	Kernel string
}

// Graph is the task-granularity execution graph: flat per-task slabs plus
// CSR-style adjacency. Once built it is never mutated, so it is safe to
// share across goroutines and replay any number of times.
//
// Structural graphs (produced by Lower) are slab-only: Tasks stays nil,
// and every per-task attribute lives in a flat slice (slotOf, classOf,
// durIdx, sources). A structural task would carry nothing but indices —
// its durations bind per plan, its label resolves through the source
// operator — so materializing a 100-byte Task value per task would only
// burn allocation, zeroing, and GC scan time in the sweep hot path, and
// would make disk-loaded graphs pay a per-task decode loop. Hand-built
// graphs (tests, ad-hoc experiments) keep the eager arena.
type Graph struct {
	// Tasks is the value-typed task arena in ID order for hand-built
	// graphs; nil for structural graphs, whose per-task attributes live
	// in the flat slabs below (use NumTasks and TaskAt). Read-only after
	// Build; replay never mutates it.
	Tasks []Task
	// Devices is the number of logical devices (pipeline stages), each
	// owning one compute and one communication stream.
	Devices int
	// Model is the model the graph was lowered from (zero for hand-built
	// graphs). The model is part of the structural shape — the layer split
	// depends on it — so Bind prices operators against it directly.
	Model model.Config

	// CSR adjacency: the children of task i are
	// children[childStart[i]:childStart[i+1]], in edge-insertion order.
	childStart []int32
	children   []int32
	// indeg is the dependency count of each task (the initial "ref" of
	// Algorithm 1); copied into replay scratch, never mutated.
	indeg []int32
	// roots are the zero-dependency tasks in ID order, seeding the queue.
	roots []int32
	// classes interns the distinct Class strings; classOf maps each task
	// to its class index so replay accumulates into a flat slice instead
	// of a map.
	classes []string
	classOf []int32
	// slotOf maps each task to its resource slot 2*Device + Stream. The
	// replay loop reads it instead of the Task values: tasks are large
	// (they carry strings and trace fields), so touching one per pop would
	// cost a cache miss per task. It is filled for every graph and doubles
	// as the per-task length (see NumTasks).
	slotOf []int32
	// sources maps each task to its originating operator-graph node. A nil
	// slice means the identity mapping — at operator granularity the task
	// graph is isomorphic to the operator graph, so storing 4 bytes per
	// task (in memory and in every disk artifact) would encode nothing.
	sources []int32
	// descs is the compact duration-descriptor table of a structural
	// graph (nil for hand-built graphs): every distinct way a task can be
	// priced, deduplicated. durIdx maps each task to its descriptor. Bind
	// resolves descriptors into concrete per-task durations for one plan.
	descs  []durDesc
	durIdx []int32
	// commRows lists the (descriptor, stage) pairs at which comm-stream
	// tasks occur, as ascending rows di*Devices+stage of a
	// ContentionTable's link table; commTasks counts the tasks of each, and
	// commPos maps each such row to its position in commRows (other rows
	// map to 0 and are never read). All are pure functions of durIdx and
	// slotOf, derived once (commOnce) by the first BindContention and never
	// persisted.
	commRows, commTasks, commPos []int32
	commOnce                     sync.Once
	// labels holds the per-source-node label coordinates TaskLabel composes
	// on demand, in the operator graph's columnar form. No graph starts
	// with them resident: they are over half a lowered graph's bytes and
	// sweeps never render one. nLabels records how many records the table
	// holds, and labelSrc fetches it once, on the first Labels call: a
	// lowered graph rebuilds its operator graph (see labelsFrom), a
	// disk-loaded one reads the label artifact (see SetLabelSource).
	// Because the columns match the on-disk layout, a loaded table aliases
	// them out of the read buffer with zero copies.
	labels   *opgraph.LabelTable
	nLabels  int
	labelSrc func() *opgraph.LabelTable
	// labelOnce makes the lazy fetch single-flight and publishes labels
	// safely to concurrent TaskLabel callers.
	labelOnce sync.Once
	// labelOf lazily resolves a task's base label from its Source node;
	// hand-built graphs may install one via SetLabeler. Lowered graphs use
	// labels instead. Only trace capture calls it.
	labelOf func(source int) string
}

// Structural reports whether the graph was lowered (duration descriptors,
// no eager durations) rather than hand-built.
func (g *Graph) Structural() bool { return g.descs != nil }

// NumTasks returns the number of tasks in the graph. Unlike len(Tasks) it
// is meaningful for structural graphs, which keep no eager task arena.
func (g *Graph) NumTasks() int { return len(g.slotOf) }

// source returns the operator-graph node task id lowered from.
func (g *Graph) source(id int) int {
	if g.sources == nil {
		return id
	}
	return int(g.sources[id])
}

// TaskAt materializes the task value for id. For hand-built graphs this is
// Tasks[id]; for structural graphs the value is assembled from the slabs
// (durations, FLOPs, and kernel names stay zero — they are per-plan
// quantities a structural task does not carry).
func (g *Graph) TaskAt(id int) Task {
	if g.Tasks != nil {
		return g.Tasks[id]
	}
	slot := g.slotOf[id]
	return Task{
		ID:     id,
		Device: int(slot / 2),
		Stream: Stream(slot % 2),
		Source: g.source(id),
		Class:  g.classes[g.classOf[id]],
	}
}

// Children returns the dependent task IDs of task id.
func (g *Graph) Children(id int) []int32 {
	return g.children[g.childStart[id]:g.childStart[id+1]]
}

// SetLabelSource installs a lazy fetcher for a disk-loaded graph's label
// table. The artifact tier stores labels separately from structure, so a
// loaded graph defers their cost until a trace actually composes a label;
// the source runs at most once, and its result is shared by all callers.
// Call before the graph is published to other goroutines.
func (g *Graph) SetLabelSource(f func() *opgraph.LabelTable) { g.labelSrc = f }

// labelsFrom installs a lowered graph's label source. Labels are a pure
// function of what og was built from, so rather than copying them out of
// og at lowering time, the first Labels call rebuilds og from its recorded
// model, plan, and cluster and keeps the rebuilt graph's label table.
func (g *Graph) labelsFrom(og *opgraph.Graph) {
	m, plan, c := og.Model, og.Plan, og.Cluster
	g.nLabels = og.NumNodes()
	g.labelSrc = func() *opgraph.LabelTable {
		// og was built from the same inputs, so the rebuild cannot fail;
		// a nil table would only make TaskLabel render empty labels.
		t, _ := opgraph.BuildLabels(m, plan, c)
		return t
	}
}

// LabelCount returns the number of label records the graph's label table
// holds, or will hold once fetched. Source indices are always below this
// bound.
func (g *Graph) LabelCount() int { return g.nLabels }

// Labels returns the graph's label table, fetching it through the lazy
// source on first use. Nil when the graph carries no labels and no source.
func (g *Graph) Labels() *opgraph.LabelTable {
	if g.labelSrc != nil {
		g.labelOnce.Do(func() { g.labels = g.labelSrc() })
	}
	return g.labels
}

// TaskLabel composes the human-readable trace tag of task id: the source
// operator's (lazily rendered) label, qualified by the kernel name at task
// granularity. Labels are formatted only when this is called — untraced
// replays never pay for them, and a disk-loaded graph does not
// even load its label bytes until the first call.
func (g *Graph) TaskLabel(id int) string {
	if g.Tasks == nil {
		// Structural graphs carry no eager labels or kernel names; the
		// base label composes from the source node's coordinates.
		src := g.source(id)
		if labels := g.Labels(); labels != nil {
			return labels.At(src).Compose()
		}
		if g.labelOf != nil {
			return g.labelOf(src)
		}
		return ""
	}
	t := &g.Tasks[id]
	base := t.Label
	if base == "" {
		if labels := g.Labels(); labels != nil {
			base = labels.At(t.Source).Compose()
		} else if g.labelOf != nil {
			base = g.labelOf(t.Source)
		}
	}
	if t.Kernel == "" {
		return base
	}
	return base + "/" + t.Kernel
}

// Builder accumulates tasks and dependency edges and finalizes them into an
// immutable Graph. Lower uses it internally; tests use it to hand-build
// graphs.
type Builder struct {
	g       Graph
	edges   [][2]int32
	classID map[string]int32
	descID  map[durDesc]int32
	reserve int
}

// NewBuilder starts a graph over the given number of logical devices.
func NewBuilder(devices int) *Builder {
	return &Builder{
		g:       Graph{Devices: devices},
		classID: make(map[string]int32),
	}
}

// Reserve pre-allocates capacity for the given task and edge counts,
// avoiding append-doubling waste when the caller knows the graph size.
func (b *Builder) Reserve(tasks, edges int) {
	b.reserve = tasks
	b.g.classOf = make([]int32, 0, tasks)
	b.edges = make([][2]int32, 0, edges)
}

// intern returns the class index for name, adding it on first use.
func (b *Builder) intern(name string) int32 {
	cid, ok := b.classID[name]
	if !ok {
		cid = int32(len(b.g.classes))
		b.g.classes = append(b.g.classes, name)
		b.classID[name] = cid
	}
	return cid
}

// addTaskDesc appends a task together with its interned duration
// descriptor — the structural-lowering path. Structural tasks live only in
// the flat slabs (no Task arena; see Graph). A builder must use either
// AddTask (eager durations) or addTaskDesc (descriptors) exclusively.
func (b *Builder) addTaskDesc(t Task, d durDesc) int {
	id := len(b.g.classOf)
	if b.descID == nil {
		b.descID = make(map[durDesc]int32)
		n := cap(b.g.classOf)
		b.g.durIdx = make([]int32, 0, n)
		b.g.slotOf = make([]int32, 0, n)
		b.g.sources = make([]int32, 0, n)
	}
	b.g.classOf = append(b.g.classOf, b.intern(t.Class))
	b.g.slotOf = append(b.g.slotOf, int32(2*t.Device)+int32(t.Stream))
	b.g.sources = append(b.g.sources, int32(t.Source))
	di, ok := b.descID[d]
	if !ok {
		di = int32(len(b.g.descs))
		b.g.descs = append(b.g.descs, d)
		b.descID[d] = di
	}
	b.g.durIdx = append(b.g.durIdx, di)
	return id
}

// AddTask appends a task to the arena, assigning and returning its ID.
func (b *Builder) AddTask(t Task) int {
	if b.g.Tasks == nil && b.reserve > 0 {
		b.g.Tasks = make([]Task, 0, b.reserve)
	}
	t.ID = len(b.g.Tasks)
	b.g.Tasks = append(b.g.Tasks, t)
	b.g.classOf = append(b.g.classOf, b.intern(t.Class))
	return t.ID
}

// AddEdge records that task to depends on task from.
func (b *Builder) AddEdge(from, to int) {
	b.edges = append(b.edges, [2]int32{int32(from), int32(to)})
}

// SetLabeler installs a lazy label resolver mapping a task's Source ID to
// its base label. Tasks with a non-empty Label keep their eager label.
func (b *Builder) SetLabeler(f func(source int) string) {
	b.g.labelOf = f
}

// Build finalizes the accumulated tasks and edges into CSR form. The
// builder must not be reused afterwards.
func (b *Builder) Build() *Graph {
	g := &b.g
	n := len(g.classOf)
	if g.descs != nil {
		if len(g.durIdx) != n || len(g.Tasks) != 0 {
			panic("taskgraph: builder mixed eager tasks with duration descriptors")
		}
	} else if len(g.Tasks) != n {
		panic("taskgraph: builder mixed eager tasks with duration descriptors")
	}
	g.childStart = make([]int32, n+1)
	g.indeg = make([]int32, n)
	for _, e := range b.edges {
		g.childStart[e[0]+1]++
		g.indeg[e[1]]++
	}
	for i := 0; i < n; i++ {
		g.childStart[i+1] += g.childStart[i]
	}
	g.children = make([]int32, len(b.edges))
	cursor := make([]int32, n)
	copy(cursor, g.childStart[:n])
	for _, e := range b.edges {
		g.children[cursor[e[0]]] = e[1]
		cursor[e[0]]++
	}
	if g.Tasks != nil {
		// Hand-built path: derive the slabs from the eager arena.
		g.slotOf = make([]int32, n)
		for i := 0; i < n; i++ {
			g.slotOf[i] = int32(2*g.Tasks[i].Device) + int32(g.Tasks[i].Stream)
		}
	} else {
		// Structural path: normalize an identity source mapping to nil so
		// operator-level graphs — isomorphic to their operator graph —
		// don't carry (or persist) a slab that encodes nothing.
		ident := true
		for i, s := range g.sources {
			if int(s) != i {
				ident = false
				break
			}
		}
		if ident {
			g.sources = nil
		}
	}
	for i := 0; i < n; i++ {
		if g.indeg[i] == 0 {
			g.roots = append(g.roots, int32(i))
		}
	}
	return g
}

// CommTimer prices communication operators during duration binding.
// *comm.Model implements it; the testbed wraps it with contention effects.
// Bind calls it once per communication task in task-ID order, so stateful
// implementations see the same call sequence a from-scratch lowering would.
type CommTimer interface {
	AllReduce(bytes float64, n int, intraNode bool) float64
	SendRecv(bytes float64, sameNode bool) float64
}

var _ CommTimer = (*comm.Model)(nil)

// StatelessCommTimer is a CommTimer whose prices are pure functions of the
// call arguments — no per-call state, no call-order dependence. Bind prices
// communication for such timers at descriptor granularity (once per distinct
// descriptor, like compute) instead of once per task. Implementations opt in
// with the StatelessComm marker method; *comm.Model qualifies, the testbed's
// congestion-sampling wrapper deliberately does not.
type StatelessCommTimer interface {
	CommTimer
	StatelessComm()
}

var (
	_ StatelessCommTimer = (*comm.Model)(nil)
	// comm.Calibrated is a pure function of its fixed correction factors;
	// without the marker, binding silently priced its collectives once per
	// task instead of once per descriptor (the validate.RunCalibrated path).
	_ StatelessCommTimer = comm.Calibrated{}
)

// Lower translates the operator graph into a structural task graph: tasks,
// dependency edges, and one duration descriptor per task — no durations.
// The result depends only on the plan's structural shape (schedule,
// pipeline depth, micro-batch count, interleaving, layer split, fidelity),
// so it can be cached and shared across every plan of that shape; Bind
// resolves the descriptors into per-plan durations. Labels are not copied:
// the graph rebuilds them from g's model, plan, and cluster on the first
// TaskLabel call, so g may be recycled as soon as Lower returns.
//
// prof is consulted only for the kernel count of each operator (fixed per
// operator kind), never for durations.
func Lower(g *opgraph.Graph, prof *profiler.Profiler, fid Fidelity) *Graph {
	if fid == OperatorLevel {
		// At operator granularity the task graph is isomorphic to the
		// operator graph (one task per node), so a direct translation
		// skips the builder entirely — the sweep hot path. It produces
		// exactly lowerBuilder's graph (asserted by tests).
		return lowerOperatorLevel(g)
	}
	return lowerBuilder(g, prof, fid)
}

// lowerBuilder is the general builder-based lowering, used at TaskLevel
// (where one operator expands into several kernel tasks) and as the
// reference implementation the operator-level fast path is tested against.
func lowerBuilder(g *opgraph.Graph, prof *profiler.Profiler, fid Fidelity) *Graph {
	b := NewBuilder(g.Stages)
	b.g.Model = g.Model
	nNodes := g.NumNodes()
	// Pre-count tasks and edges so the arena and edge list are allocated
	// exactly once; Profile results are cached by the profiler, so the
	// extra pass costs lookups, not profiling work.
	nTasks, nEdges := 0, 0
	for id := 0; id < nNodes; id++ {
		k := 1
		if fid == TaskLevel && g.Kind(id) == opgraph.Compute {
			k = len(prof.Profile(g.OperatorOf(id)))
		}
		nTasks += k
		nEdges += k - 1 + len(g.Deps(id))
	}
	b.Reserve(nTasks, nEdges)
	// first/last task of each operator-graph node, for edge translation.
	firstTask := make([]int, nNodes)
	lastTask := make([]int, nNodes)

	for nid := 0; nid < nNodes; nid++ {
		n := g.Node(nid)
		switch n.Kind {
		case opgraph.Compute:
			class := n.Op.String()
			kernels := 1
			if fid == TaskLevel {
				kernels = len(prof.Profile(g.OperatorOf(nid)))
			}
			if kernels == 1 {
				id := b.addTaskDesc(
					Task{Device: int(n.Stage), Stream: ComputeStream, Source: nid, Class: class},
					durDesc{kind: descOperator, op: n.Op, stageParams: n.StageParams},
				)
				firstTask[nid], lastTask[nid] = id, id
			} else {
				prev := -1
				for i := 0; i < kernels; i++ {
					id := b.addTaskDesc(
						Task{Device: int(n.Stage), Stream: ComputeStream, Source: nid, Class: class},
						durDesc{kind: descKernel, op: n.Op, kernel: int32(i), stageParams: n.StageParams},
					)
					if i == 0 {
						firstTask[nid] = id
					} else {
						b.AddEdge(prev, id)
					}
					prev = id
				}
				lastTask[nid] = prev
			}
		case opgraph.AllReduceTP:
			id := b.addTaskDesc(
				Task{Device: int(n.Stage), Stream: CommStream, Source: nid, Class: n.Kind.String()},
				durDesc{kind: descAllReduceTP},
			)
			firstTask[nid], lastTask[nid] = id, id
		case opgraph.AllReduceDP:
			id := b.addTaskDesc(
				Task{Device: int(n.Stage), Stream: CommStream, Source: nid, Class: n.Kind.String()},
				durDesc{kind: descAllReduceDP, stageParams: n.StageParams, buckets: n.Buckets},
			)
			firstTask[nid], lastTask[nid] = id, id
		case opgraph.P2P:
			id := b.addTaskDesc(
				Task{Device: int(n.Stage), Stream: CommStream, Source: nid, Class: n.Kind.String()},
				durDesc{kind: descP2P, from: n.FromStage, to: n.Stage},
			)
			firstTask[nid], lastTask[nid] = id, id
		default:
			panic(fmt.Sprintf("taskgraph: unknown node kind %v", n.Kind))
		}
		// Operator-graph edges: node starts after all its deps finish.
		for _, d := range g.Deps(nid) {
			b.AddEdge(lastTask[d], firstTask[nid])
		}
	}
	tg := b.Build()
	tg.labelsFrom(g)
	return tg
}

// Result summarizes one simulated iteration.
type Result struct {
	// IterTime is the predicted single-iteration training time.
	IterTime float64
	// ComputeBusy / CommBusy are per-device busy seconds per stream.
	ComputeBusy []float64
	CommBusy    []float64
	// FLOPs is the total executed arithmetic across all simulated
	// devices (the folded representative replica set).
	FLOPs float64
	// Executed is the number of tasks replayed.
	Executed int
	// ClassSeconds attributes busy time to accounting buckets (operator
	// kinds and communication kinds), summed across devices.
	ClassSeconds map[string]float64
}
