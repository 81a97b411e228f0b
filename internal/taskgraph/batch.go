package taskgraph

import (
	"fmt"
	"sync"
)

// shrinkAfter is the hysteresis window of the pooled-scratch capacity-drop
// policy: a pooled object sheds oversized storage (capacity beyond 4x the
// requested size) only after this many consecutive oversized reuses. One
// huge graph therefore cannot pin worst-case capacity forever, but a sweep
// that interleaves large and small graphs keeps its high-water buffer
// instead of reallocating on every size swing.
const shrinkAfter = 8

// wantShrink advances a pooled object's hysteresis counter given the
// capacity of its driving buffer and the currently requested size, and
// reports whether this reset should drop oversized storage.
func wantShrink(c, need int, oversized *int8) bool {
	if c <= 4*need {
		*oversized = 0
		return false
	}
	if *oversized++; *oversized >= shrinkAfter {
		*oversized = 0
		return true
	}
	return false
}

// fitZero returns a zeroed slice of length n, reusing s's storage unless it
// is too small or drop demands oversized capacity be shed.
func fitZero[T int32 | float64](s []T, n int, drop bool) []T {
	if cap(s) < n || drop {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// fitRaw is fitZero without the zeroing, for buffers the caller fully
// overwrites before reading.
func fitRaw[T any](s []T, n int, drop bool) []T {
	if cap(s) < n || drop {
		return make([]T, n)
	}
	return s[:n]
}

// batchScratch holds all mutable state of one replay: the shared structural
// traversal (ref counts, FIFO queue — one per batch, since topological order
// is structure-only) plus the columnar per-lane clocks. The per-task columns
// are lane-major ([task][lane] flattened), so the lane loop advances k
// adjacent lanes with contiguous loads and stores.
type batchScratch struct {
	// ref and queue drive the single shared traversal (Algorithm 1's
	// dependency counts and FIFO queue, shared by every lane).
	ref   []int32
	queue []int32
	// m is the lane loop's duration matrix, row-major: m[row*k+lane] is
	// lane's bound value for one row, and task id reads row ix[id]. Rows are
	// descriptors in a sweep's stateless batches, else tasks (see
	// fillMatrix). The width-1 body reads its table directly.
	m []descVal
	// mOversized is m's wantShrink counter: m's size swings with the row
	// kind, independently of the per-task buffers.
	mOversized int8
	// ready[id*k+lane] is lane's earliest dependency-permitted start. Not
	// pre-zeroed: a task's row is written in full by its first incoming
	// edge (detected via the untouched ref count), and root rows — which
	// have no incoming edge — are cleared explicitly before the walk.
	ready []float64
	// free[slot*k+lane] is lane's timeline for slot = 2*device+stream.
	free []float64
	// busy[slot*k+lane] accumulates lane's busy seconds per slot.
	busy []float64
	// classSec[class*k+lane] accumulates lane's busy seconds per class.
	classSec []float64
	// flopsSum[lane] accumulates lane's executed FLOPs.
	flopsSum []float64
	// states[lane] is lane's pooled occupancy ledger under contention
	// (nil for ideal lanes and fully ideal batches).
	states []*contState
	// oversized counts consecutive resets whose pooled capacity exceeded 4x
	// the request (see wantShrink).
	oversized int8
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// reset sizes the scratch for k lanes over a graph with n tasks, devices
// devices, and classes distinct classes, zeroing what the replay reads.
// Oversized pooled storage is shed per the hysteretic policy of wantShrink,
// driven by ready — the scratch's largest buffer.
func (sc *batchScratch) reset(n, devices, classes, k int) {
	drop := wantShrink(cap(sc.ready), n*k, &sc.oversized)
	sc.ref = fitRaw(sc.ref, n, drop)
	if cap(sc.queue) < n || drop {
		sc.queue = make([]int32, 0, n)
	}
	sc.queue = sc.queue[:0]
	sc.ready = fitRaw(sc.ready, n*k, drop)
	sc.free = fitZero(sc.free, 2*devices*k, drop)
	sc.busy = fitZero(sc.busy, 2*devices*k, drop)
	sc.classSec = fitZero(sc.classSec, classes*k, drop)
	sc.flopsSum = fitZero(sc.flopsSum, k, drop)
}

// ReplayContended simulates one iteration per Algorithm 1 — a FIFO ready
// queue, per-device timelines split into compute and communication streams,
// and dependency reference counts — using the per-plan durations bound in
// tbl. A nil ct replays the ideal network; a non-nil ct (the contention
// fidelity level) makes comm tasks sharing fat-tree links with concurrently
// in-flight comm tasks run slower by the congestion model's derate factors.
// Replay never writes to g, tbl, or ct, so one shared structural graph may
// be replayed under many tables concurrently.
func (g *Graph) ReplayContended(tbl *DurationTable, ct *ContentionTable) (Result, error) {
	var res [1]Result
	_, err := g.replay([]*DurationTable{tbl}, []*ContentionTable{ct}, res[:], false)
	return res[0], err
}

// ReplayTraceContended is ReplayContended plus the full execution timeline;
// span durations reflect derated comm tasks. Span labels resolve through
// the table's binding, so kernel names reflect the bound plan's tensor
// shapes exactly as a from-scratch lowering would.
func (g *Graph) ReplayTraceContended(tbl *DurationTable, ct *ContentionTable) (Result, []Span, error) {
	var res [1]Result
	spans, err := g.replay([]*DurationTable{tbl}, []*ContentionTable{ct}, res[:], true)
	return res[0], spans, err
}

// ReplayBatchContended replays the graph under every table in tables,
// walking the CSR structure once while advancing len(tables) simulated
// clocks in lockstep. Results[i] is bit-identical to
// ReplayContended(tables[i], cts[i]): each lane performs exactly the
// floating-point operations of a single replay, in the same order — batching
// shares only the structure-determined work (FIFO traversal, dependency
// counting, task decoding), which is identical across lanes. Each lane
// carries its own occupancy ledger: lanes are independent simulated
// clusters and never contend with each other. cts may be nil, and any
// cts[i] may be nil; such lanes replay the ideal network.
//
// An empty batch returns nil.
func (g *Graph) ReplayBatchContended(tables []*DurationTable, cts []*ContentionTable) ([]Result, error) {
	if cts != nil && len(cts) != len(tables) {
		return nil, fmt.Errorf("taskgraph: batch has %d tables but %d contention tables", len(tables), len(cts))
	}
	if len(tables) == 0 {
		return nil, nil
	}
	results := make([]Result, len(tables))
	_, err := g.replay(tables, cts, results, false)
	return results, err
}

// replay is the replay kernel behind every entry point: it writes lane l's
// result to results[l] and, when capture is set (width 1 only), returns the
// timeline. The walk has two bodies, chosen by batch width: a width-1 body
// with the lane subscripts collapsed away, and the lane loop. They perform
// the identical float operations; the lane loop at width 1 would cost ~1.5x
// on a Megatron-3.6B graph.
func (g *Graph) replay(tables []*DurationTable, cts []*ContentionTable, results []Result, capture bool) ([]Span, error) {
	k := len(tables)
	n := g.NumTasks()
	if n == 0 {
		return nil, fmt.Errorf("taskgraph: graph has no tasks")
	}
	for i, tbl := range tables {
		if tbl == nil {
			return nil, fmt.Errorf("taskgraph: duration table %d is nil; Bind one per replayed plan", i)
		}
		if tbl.Len() != n {
			return nil, fmt.Errorf("taskgraph: duration table %d binds %d tasks, graph has %d", i, tbl.Len(), n)
		}
		if err := tbl.check(i); err != nil {
			return nil, err
		}
	}

	sc := batchScratchPool.Get().(*batchScratch)
	sc.reset(n, g.Devices, len(g.classes), k)

	// Occupancy ledgers are per lane: each lane is an independent simulated
	// cluster, so flows contend only within their own lane. A lane whose
	// table has no live class draws none and replays as an ideal lane, and
	// states stays nil for fully ideal batches, keeping the hot loops
	// branch-predictable; the ledgers themselves come from the contState
	// pools, like every other piece of replay scratch.
	var states []*contState
	for l, ct := range cts {
		if ct == nil || ct.flows == 0 {
			continue // the ideal network, exactly
		}
		if states == nil {
			if cap(sc.states) < k {
				sc.states = make([]*contState, k)
			}
			states = sc.states[:k]
		}
		states[l] = getContState(ct)
	}

	copy(sc.ref, g.indeg)
	sc.queue = append(sc.queue, g.roots...)
	for _, r := range g.roots {
		clear(sc.ready[int(r)*k : int(r)*k+k]) // rows no edge will write
	}

	var spans []Span
	if k == 1 {
		var ct *ContentionTable
		var st *contState
		if states != nil {
			ct, st = cts[0], states[0]
		}
		if capture {
			spans = make([]Span, 0, n)
		}
		spans = g.walkOne(sc, tables[0], ct, st, spans)
	} else {
		g.walkLanes(sc, tables, cts, states)
	}
	// Every queued task was popped and executed.
	executed := len(sc.queue)

	for l := range results {
		res := &results[l]
		res.ComputeBusy = make([]float64, g.Devices)
		res.CommBusy = make([]float64, g.Devices)
		for d := 0; d < g.Devices; d++ {
			res.ComputeBusy[d] = sc.busy[(2*d+int(ComputeStream))*k+l]
			res.CommBusy[d] = sc.busy[(2*d+int(CommStream))*k+l]
		}
		for slot := 0; slot < 2*g.Devices; slot++ {
			if f := sc.free[slot*k+l]; f > res.IterTime {
				res.IterTime = f
			}
		}
		res.FLOPs = sc.flopsSum[l]
		res.Executed = executed
		res.ClassSeconds = make(map[string]float64, len(g.classes))
		for c, name := range g.classes {
			res.ClassSeconds[name] = sc.classSec[c*k+l]
		}
	}

	sc.queue = sc.queue[:0]
	for l := range states {
		putContState(states[l])
		states[l] = nil
	}
	batchScratchPool.Put(sc)

	if executed != n {
		return spans, fmt.Errorf("taskgraph: deadlock, executed %d of %d tasks", executed, n)
	}
	return spans, nil
}

// walkOne is the width-1 body of replay: Algorithm 1 for one table, with
// optional contention (st non-nil) and span capture (spans non-nil).
func (g *Graph) walkOne(sc *batchScratch, tbl *DurationTable, ct *ContentionTable, st *contState, spans []Span) []Span {
	capture := spans != nil
	vals, idx := tbl.vals, tbl.idx
	queue := sc.queue
	flopsSum := 0.0
	for head := 0; head < len(queue); head++ {
		id := queue[head] // fetch in FIFO order
		// slotOf keeps the loop off the wide Task values (a cache miss per
		// pop otherwise).
		slot := g.slotOf[id]
		dv := &vals[idx[id]]
		d, fl := dv.dur, dv.flops
		start := sc.ready[id]
		if f := sc.free[slot]; f > start {
			start = f
		}
		if st != nil && slot&1 == int32(CommStream) {
			d = ct.contend(st, slot, g.durIdx[id], start, d)
		}
		finish := start + d
		sc.free[slot] = finish // proceed the timeline
		sc.busy[slot] += d
		sc.classSec[g.classOf[id]] += d
		flopsSum += fl
		if capture {
			spans = append(spans, Span{Device: int(slot >> 1), Stream: Stream(slot & 1), Start: start, End: finish, Label: tbl.taskLabel(g, int(id))})
		}
		for _, cid := range g.Children(int(id)) {
			if sc.ref[cid] == g.indeg[cid] {
				// First incoming edge: finish is max(0, finish), what
				// folding into a zeroed row computes, since no bound
				// duration is negative or NaN (see DurationTable.check).
				sc.ready[cid] = finish
			} else if finish > sc.ready[cid] {
				sc.ready[cid] = finish // update the child task
			}
			sc.ref[cid]--
			if sc.ref[cid] == 0 {
				queue = append(queue, cid) // update the task queue
			}
		}
	}
	sc.flopsSum[0] = flopsSum
	sc.queue = queue
	return spans
}

// fillMatrix transposes the lanes' bound values into sc.m, one row of k
// lanes per entry, and returns the row index of every task. When every
// lane gathers through the same index, rows are the tables' own entries:
// in a sweep, whose stateless binds all share the graph's durIdx, that is
// the few dozen descriptors, so the matrix stays L1-resident. Otherwise
// (a batch mixing per-task and per-descriptor bindings) rows are tasks,
// gathered once per lane up front through the identity index.
func (sc *batchScratch) fillMatrix(tables []*DurationTable) []int32 {
	k := len(tables)
	ix, rows := tables[0].idx, len(tables[0].vals)
	shared := true
	for _, tbl := range tables[1:] {
		if &tbl.idx[0] != &ix[0] || len(tbl.idx) != len(ix) || len(tbl.vals) != rows {
			shared = false
			break
		}
	}
	if !shared {
		ix, rows = identityIndex(len(ix)), len(ix)
	}
	sc.m = fitRaw(sc.m, rows*k, wantShrink(cap(sc.m), rows*k, &sc.mOversized))
	for l, tbl := range tables {
		if shared {
			for r, v := range tbl.vals {
				sc.m[r*k+l] = v
			}
			continue
		}
		for id, j := range tbl.idx {
			sc.m[id*k+l] = tbl.vals[j]
		}
	}
	return ix
}

// walkLanes is the lane loop of replay: one shared FIFO walk advancing one
// clock per table for every popped task.
func (g *Graph) walkLanes(sc *batchScratch, tables []*DurationTable, cts []*ContentionTable, states []*contState) {
	k := len(tables)
	ix := sc.fillMatrix(tables)
	flopsSum := sc.flopsSum[:k]
	queue := sc.queue
	for head := 0; head < len(queue); head++ {
		id := queue[head] // fetch in FIFO order
		slot := int(g.slotOf[id])
		// Row subslices fix the bounds once, so the lane loops below are
		// check-free.
		vals := sc.m[int(ix[id])*k : int(ix[id])*k+k]
		ready := sc.ready[int(id)*k : int(id)*k+k]
		free := sc.free[slot*k : slot*k+k]
		busy := sc.busy[slot*k : slot*k+k]
		classSec := sc.classSec[int(g.classOf[id])*k : int(g.classOf[id])*k+k]
		for l := 0; l < k; l++ {
			dur, fl := vals[l].dur, vals[l].flops
			start := ready[l]
			if f := free[l]; f > start {
				start = f
			}
			if states != nil && states[l] != nil && slot&1 == int(CommStream) {
				dur = cts[l].contend(states[l], int32(slot), g.durIdx[id], start, dur)
			}
			free[l] = start + dur // proceed lane l's timeline
			busy[l] += dur
			classSec[l] += dur
			flopsSum[l] += fl
		}
		for _, cid := range g.Children(int(id)) {
			cready := sc.ready[int(cid)*k : int(cid)*k+k]
			if sc.ref[cid] == g.indeg[cid] {
				// First incoming edge: initialize the child's row as a copy
				// of free, which is max(0, free) — exactly what folding
				// into a zeroed row computes, without pre-zeroing the whole
				// array — since no bound duration is negative or NaN (see
				// DurationTable.check).
				copy(cready, free)
			} else {
				for l := 0; l < k; l++ {
					if f := free[l]; f > cready[l] {
						cready[l] = f // update the child task, lane l
					}
				}
			}
			sc.ref[cid]--
			if sc.ref[cid] == 0 {
				queue = append(queue, cid) // update the shared task queue
			}
		}
	}
	sc.queue = queue
}
