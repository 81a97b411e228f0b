package taskgraph

import (
	"fmt"
	"sync"

	"vtrain/internal/comm"
	"vtrain/internal/hw"
	"vtrain/internal/parallel"
)

// This file implements the contention fidelity level: instead of pricing
// every collective on an ideal uncontended link, the replay tracks which
// communication tasks are simultaneously in flight on shared fat-tree links
// (node NVSwitches, per-node HCA bundles, the spine) and derates their
// durations by comm.Congestion's per-class weights.
//
// The split mirrors the structure/timing split. BindContention resolves
// every (descriptor, pipeline stage) pair of a structural graph against one
// plan and cluster into the link classes its comm tasks occupy — a flat
// linkSet table, filled once with comm.CollectivePath and comm.SendRecvPath
// and immutable afterwards. The replay-time part (this file's occupancy
// ledger, pooled and owned per replay call and per batch lane) then needs
// one table load per comm task, plus an overlap count against the flows
// already recorded on each of its link classes. Contention never changes
// the graph's structure, so structural caching, artifact round-trips, and
// cross-plan sharing are untouched; with a nil table every replay entry
// point performs bit-identical float operations to the contention-free
// path.
//
// The ledger rests on the seriality of comm streams. A task starts no
// earlier than its stream slot's previous finish, and that finish is the
// previous task's *derated* end, so the flows one slot records on a link
// class have ascending starts and ascending ends: each starts at or after
// the one before it ended. Every link class therefore keeps one
// append-only run per contributing slot, and the flows of a run that
// overlap [s, e) are exactly the run indices in
//
//	[#(end <= s), #(start < e))
//
// — both bounds are prefix lengths of the run, found by binary search, and
// an empty range counts zero. The count is exact, so the derate arithmetic
// is bit-identical to a flat scan over every recorded flow; only the cost
// changes, to two binary searches per contributing run.
//
// Seriality also makes most of that work unnecessary. A flow never
// overlaps its own slot's earlier flows, so on a class only one comm
// stream records on, every query counts 0 and every record goes unread.
// Binding therefore drops such classes (see prune) — in a typical sweep
// every class a TP All-Reduce touches.

// linkSet is the bind-time resolution of one (descriptor, stage) pair: the
// link classes its comm tasks occupy. nv and hca hold class indices, 0 when
// unused (class 0 is the spine, which only spine names). The zero linkSet
// occupies no link — compute descriptors, and paths with no shared link.
type linkSet struct {
	nv    int32
	hca   [2]int32
	spine bool
}

// ContentionTable is the per-(plan, cluster) contention binding of one
// structural graph: for every duration descriptor and pipeline stage, which
// fat-tree links its tasks occupy. Like a DurationTable it is immutable
// after binding, so one table can back any number of concurrent replays —
// the mutable occupancy state lives in a per-replay contState.
type ContentionTable struct {
	cg comm.Congestion
	// classes is the link-class count: spine, then (nv, hca) per node.
	classes int
	// devices is the graph's device (pipeline stage) count, the row width
	// of links.
	devices int
	// links[di*devices+stage] is the link set of descriptor di's tasks on
	// stage.
	links []linkSet
	// live[pos[di*devices+stage]] is what replay reads for descriptor di's
	// tasks on stage: that links row without the classes only one stage
	// records on (see prune). live holds only the rows comm tasks occur
	// at, in the graph's commRows order; pos is the graph's commPos.
	live []linkSet
	pos  []int32
	// heavy reports whether a tensor-parallel All-Reduce — the bulk of
	// comm tasks — keeps a live class: the replay's ledger then holds
	// thousands of flows rather than a few hundred. It keys the ledger
	// pool.
	heavy bool
	// flows bounds the flows a replay can record: per live row, its comm
	// tasks times its classes. A table with none replays exactly as the
	// ideal network, so its lane draws no ledger; otherwise it sizes the
	// ledger's arena (see contState.reset).
	flows int
}

// Link-class layout: class 0 is the spine; node k's NVSwitch is 1+2k and
// its HCA bundle 2+2k.
func nvClass(node int) int  { return 1 + 2*node }
func hcaClass(node int) int { return 2 + 2*node }

// BindContention resolves the graph's communication descriptors against the
// cluster's fat-tree topology for one concrete plan, and prunes from what
// replay reads every link class that comm tasks of only one stage can
// record on (see prune); a table left with no class replays exactly as the
// ideal network. tbl is unused: the ledger needs no tuning from the bound
// durations, and the parameter stays only so callers keep one signature.
// BindContention returns nil for hand-built eager graphs (no descriptors):
// their durations were priced by an arbitrary external process the topology
// knows nothing about, and a nil table makes every contended entry point
// equivalent to its ideal twin.
func (g *Graph) BindContention(plan parallel.Plan, c hw.Cluster, tbl *DurationTable) *ContentionTable {
	return g.bindContention(plan, c, true)
}

// bindContention is BindContention; with prune false, replay reads the
// full link table, recording and querying every class.
func (g *Graph) bindContention(plan parallel.Plan, c hw.Cluster, prune bool) *ContentionTable {
	if g.descs == nil {
		return nil
	}
	gpn := c.Node.GPUsPerNode
	stride := plan.Tensor * plan.Data
	devices := g.Devices
	rows := len(g.descs) * devices
	ct := &ContentionTable{
		cg:      comm.NewCongestion(c),
		devices: devices,
	}
	commRows, pos := g.commIndex()
	buf := make([]linkSet, rows+len(commRows))
	ct.links, ct.live, ct.pos = buf[:rows:rows], buf[rows:], pos
	maxClass := 0
	for i := range g.descs {
		d := &g.descs[i]
		var span int
		switch d.kind {
		case descAllReduceTP:
			span = collectiveSpan(allReduceTPArgs(plan, gpn))
		case descAllReduceDP:
			span = collectiveSpan(allReduceDPArgs(plan, gpn))
		case descP2P:
		default:
			continue // compute: the zero linkSet
		}
		for stage := 0; stage < devices; stage++ {
			var p comm.Path
			if d.kind == descP2P {
				// A transfer's endpoints are fixed by its descriptor.
				p = ct.cg.SendRecvPath(int(d.from)*stride/gpn, int(d.to)*stride/gpn)
			} else {
				// A collective's representative node is its stage's.
				p = ct.cg.CollectivePath(stage*stride/gpn, span)
			}
			ls := linkSetOf(p)
			ct.links[i*devices+stage] = ls
			maxClass = max(maxClass, int(ls.nv), int(ls.hca[0]), int(ls.hca[1]))
		}
	}
	ct.classes = maxClass + 1
	if prune {
		ct.prune(g, commRows)
	} else {
		for i, r := range commRows {
			ct.live[i] = ct.links[r]
		}
		ct.heavy = true
	}
	for i := range ct.live {
		_, n := ct.live[i].classList()
		ct.flows += n * int(g.commTasks[i])
	}
	return ct
}

// prune fills live with links minus every class that comm tasks of only
// one stage can record on, and sets heavy. Dropping such a class is exact.
// A stage has one comm stream, and a stream's flows are serial, so a flow
// never overlaps its own stream's earlier flows: every query on a class
// only its stream records on counts 0, and what it records there is read
// by nobody else. Which stages record on a class is read off the graph's
// structure (rows, its commRows), never off the bound durations, so the
// verdict holds for every binding of the plan.
func (ct *ContentionTable) prune(g *Graph, rows []int32) {
	// rec[c] is 1+stage of the one stage recording on class c so far, 0
	// before any, and -1 once a second stage does.
	var small [64]int32
	rec := small[:]
	if ct.classes > len(rec) {
		rec = make([]int32, ct.classes)
	}
	for _, r := range rows {
		stage := 1 + r%int32(ct.devices)
		cs, n := ct.links[r].classList()
		for _, c := range cs[:n] {
			switch rec[c] {
			case 0:
				rec[c] = stage
			case stage, -1:
			default:
				rec[c] = -1
			}
		}
	}
	shared := func(c int32) bool { return rec[c] < 0 }
	for i, r := range rows {
		ls := &ct.links[r]
		var p linkSet
		if ls.nv != 0 && shared(ls.nv) {
			p.nv = ls.nv
		}
		j := 0
		for _, c := range ls.hca {
			if c != 0 && shared(c) {
				p.hca[j] = c
				j++
			}
		}
		p.spine = ls.spine && shared(0)
		if p == (linkSet{}) {
			continue
		}
		ct.live[i] = p
		if g.descs[int(r)/ct.devices].kind == descAllReduceTP {
			ct.heavy = true
		}
	}
}

// classList returns the classes ls occupies, in cs[:n].
func (ls *linkSet) classList() (cs [4]int32, n int) {
	if ls.nv != 0 {
		cs[n], n = ls.nv, n+1
	}
	for _, c := range ls.hca {
		if c != 0 {
			cs[n], n = c, n+1
		}
	}
	if ls.spine {
		cs[n], n = 0, n+1
	}
	return cs, n
}

// commIndex returns g.commRows and g.commPos, deriving them (and
// g.commTasks) on first use.
func (g *Graph) commIndex() (rows, pos []int32) {
	g.commOnce.Do(func() {
		count := make([]int32, len(g.descs)*g.Devices)
		for id, slot := range g.slotOf {
			if slot&1 == int32(CommStream) {
				count[int(g.durIdx[id])*g.Devices+int(slot>>1)]++
			}
		}
		for r, n := range count {
			if n != 0 {
				count[r] = int32(len(g.commRows))
				g.commRows = append(g.commRows, int32(r))
				g.commTasks = append(g.commTasks, n)
			}
		}
		g.commPos = count
	})
	return g.commRows, g.commPos
}

// collectiveSpan is the node span a collective's path is resolved with:
// 1 for a node-local group.
func collectiveSpan(nodes int, intra bool) int {
	if intra {
		return 1
	}
	return nodes
}

// linkSetOf converts a resolved path into ledger class indices.
func linkSetOf(p comm.Path) linkSet {
	var ls linkSet
	if p.NVNode >= 0 {
		ls.nv = int32(nvClass(p.NVNode))
	}
	for i, n := range p.HCANodes {
		if n >= 0 {
			ls.hca[i] = int32(hcaClass(n))
		}
	}
	ls.spine = p.Spine
	return ls
}

// flow is one recorded occupancy interval [start, end).
type flow struct{ start, end float64 }

// slotRun is the append-only run of flows one comm stream slot recorded on
// one link class, in ascending order of both start and end. Its flows live
// in the contState arena at [off, off+n), in a segment of capacity cap.
type slotRun struct {
	// last is the end of the run's last flow, kept in the header so the
	// common reject — a slot that has moved on — reads no arena.
	last        float64
	off, n, cap int32
	slot        int32
}

// firstRunCap is the arena segment a run starts with, in flows.
const firstRunCap = 16

// classLedger is one link class's occupancy ledger: the runs of the slots
// that recorded on the class this replay (runs[:n]; headers past n are
// kept for reuse).
type classLedger struct {
	runs []slotRun
	n    int
}

// contState is the mutable occupancy ledger of one replay (or one batch
// lane): per link class, the per-slot runs of the flows recorded so far.
// Replay visits tasks in topological (not time) order, so a flow only
// contends with flows recorded before it — a deterministic, conservative
// under-count that keeps the replay single-pass. States are pooled
// (getContState / putContState); the ledger slice and the arena follow the
// same wantShrink hysteresis as the rest of the replay scratch.
//
// All runs share one arena rather than owning a slice each: a pooled state
// serves graphs of every shape, whose (class, slot) pairs and run lengths
// differ from replay to replay, so per-run slices would be regrown on
// nearly every reuse while one arena is sized once by the largest replay.
type contState struct {
	led []classLedger
	// arena holds every run's segment; arena[:top] is in use.
	arena []flow
	top   int32
	// oversizedLed and oversizedArena are the wantShrink counters of the
	// ledger slice and the arena.
	oversizedLed, oversizedArena int8
	// heavy records which pool the state came from (see contStatePools).
	heavy bool
}

// contStatePools holds the pooled ledgers by expected demand, indexed by
// ContentionTable.heavy. A heavy replay records thousands of flows and a
// light one a few hundred; sharing one pool would hand heavy lanes the
// small arenas of light ones, to be regrown, and shed big arenas after runs
// of light lanes, only to regrow them for the next heavy one.
var contStatePools = [2]sync.Pool{
	{New: func() any { return new(contState) }},
	{New: func() any { return &contState{heavy: true} }},
}

// poolIndex maps a demand flag to its contStatePools slot.
func poolIndex(heavy bool) int {
	if heavy {
		return 1
	}
	return 0
}

// getContState returns a pooled occupancy ledger reset for ct. Must be
// released with putContState when the replay completes.
func getContState(ct *ContentionTable) *contState {
	cs := contStatePools[poolIndex(ct.heavy)].Get().(*contState)
	cs.reset(ct)
	return cs
}

func putContState(cs *contState) {
	if cs != nil {
		contStatePools[poolIndex(cs.heavy)].Put(cs)
	}
}

// reset empties the ledger and sizes it for ct's classes. The arena's
// demand is the previous replay's high-water mark, and it starts at twice
// ct's flow bound: a run that doubles leaves holes adding up to less than
// its last segment, so a fresh ledger (the pools empty across GC cycles)
// or one meeting a heavier table allocates its arena once instead of
// doubling it up from nothing. A replay that needs more still grows it.
func (cs *contState) reset(ct *ContentionTable) {
	if wantShrink(cap(cs.led), ct.classes, &cs.oversizedLed) {
		cs.led = nil
	}
	if n := ct.classes - len(cs.led); n > 0 {
		cs.led = append(cs.led, make([]classLedger, n)...)
	}
	for c := range cs.led {
		cs.led[c].n = 0
	}
	if wantShrink(cap(cs.arena), int(cs.top), &cs.oversizedArena) {
		cs.arena = nil
	}
	if n := 2 * ct.flows; len(cs.arena) < n {
		cs.arena = make([]flow, n)
	}
	cs.top = 0
}

// overlaps counts the recorded flows on class intersecting [start, end):
// per run, the indices in [#(end <= start), #(start < end)). Runs whose
// last flow ended by start — the common case, a slot that has moved on —
// cost one compare.
func (cs *contState) overlaps(class int, start, end float64) int {
	led := &cs.led[class]
	c := 0
	runs := led.runs[:led.n]
	for i := range runs {
		r := &runs[i]
		if r.last <= start {
			continue
		}
		f := cs.arena[r.off : r.off+r.n]
		n := len(f)
		// lo = #(end <= start): the first flow still running at start.
		lo, hi := 0, n-1
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if f[m].end <= start {
				lo = m + 1
			} else {
				hi = m
			}
		}
		if f[lo].start >= end {
			continue
		}
		// #(start < end), searched past lo, whose start is below end.
		first := lo
		lo, hi = lo+1, n
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if f[m].start < end {
				lo = m + 1
			} else {
				hi = m
			}
		}
		c += lo - first
	}
	return c
}

// record appends [start, end) to slot's run on class. A start before the
// run's last end breaks the seriality the overlap count relies on, so it
// panics rather than miscount.
func (cs *contState) record(class int, slot int32, start, end float64) {
	led := &cs.led[class]
	var r *slotRun
	for i := range led.runs[:led.n] {
		if led.runs[i].slot == slot {
			r = &led.runs[i]
			break
		}
	}
	if r == nil {
		if led.n == len(led.runs) {
			led.runs = append(led.runs, slotRun{})
		}
		r = &led.runs[led.n]
		led.n++
		*r = slotRun{slot: slot}
	} else if start < r.last {
		panic(fmt.Sprintf("taskgraph: contention ledger class %d slot %d: flow [%v, %v) starts before the slot's previous flow ends at %v",
			class, slot, start, end, r.last))
	}
	if r.n == r.cap {
		cs.grow(r)
	}
	cs.arena[r.off+r.n] = flow{start, end}
	r.n++
	r.last = end
}

// grow moves r to a segment of twice its capacity at the arena's top,
// leaving a hole the next reset reclaims.
func (cs *contState) grow(r *slotRun) {
	c := max(2*r.cap, firstRunCap)
	top := cs.top
	if need := int(top + c); need > len(cs.arena) {
		arena := make([]flow, max(need, 2*len(cs.arena)))
		copy(arena, cs.arena[:top])
		cs.arena = arena
	}
	copy(cs.arena[top:], cs.arena[r.off:r.off+r.n])
	r.off, r.cap = top, c
	cs.top = top + c
}

// contend derates the base duration of the comm task in slot with
// descriptor di, given its dependency-and-stream start time, and records
// the derated flow on its live link classes. Tasks whose path occupies no
// live class (and zero-duration tasks, e.g. width-1 collectives) pass
// through unchanged. The returned duration is always >= dur: every weight
// is non-negative and the overlap counts only grow with concurrency.
func (ct *ContentionTable) contend(st *contState, slot int32, di int32, start, dur float64) float64 {
	ls := &ct.live[ct.pos[int(di)*ct.devices+int(slot>>1)]]
	if dur <= 0 || (ls.nv|ls.hca[0]) == 0 && !ls.spine {
		return dur
	}
	end := start + dur
	nv, hca, spine := 0, 0, 0
	if ls.nv != 0 {
		nv = st.overlaps(int(ls.nv), start, end)
	}
	for _, c := range ls.hca {
		if c != 0 {
			hca += st.overlaps(int(c), start, end)
		}
	}
	if ls.spine {
		spine = st.overlaps(0, start, end)
	}
	dur *= ct.cg.Derate(nv, hca, spine)
	fend := start + dur
	if ls.nv != 0 {
		st.record(int(ls.nv), slot, start, fend)
	}
	for _, c := range ls.hca {
		if c != 0 {
			st.record(int(c), slot, start, fend)
		}
	}
	if ls.spine {
		st.record(0, slot, start, fend)
	}
	return dur
}
