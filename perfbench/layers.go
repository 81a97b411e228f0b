package main

import "sort"

// ratio is a/b, or 0 when b is 0 (a layer the workload never calls).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setLayers sets the per-layer metrics the spans and counters give, per
// op (one sweep or one request).
func setLayers(r *run, t traceSummary, c counters, ops float64, profHits, profMisses int) {
	ms := func(name string) float64 { return float64(t.layer(name).dur) / ops / 1e6 }
	lower := t.layer("taskgraph.lower")
	bind := t.layer("taskgraph.bind")
	bindCont := t.layer("taskgraph.bind_contention")
	replay := t.layer("taskgraph.replay")
	price := t.layer("cost.price")
	r.set("opgraph.build_ms", ms("opgraph.build"), "ms")
	r.set("taskgraph.lower_ms", ms("taskgraph.lower"), "ms")
	r.set("taskgraph.lower_ns_per_task", ratio(float64(lower.dur), float64(c.loweredTasks)), "ns")
	r.set("core.lowerings", float64(c.lowerings)/ops, "count")
	r.set("profiler.hit_pct", 100*ratio(float64(profHits), float64(profHits+profMisses)), "%")
	r.set("taskgraph.bind_ns_per_table", ratio(float64(bind.dur), float64(c.tables)), "ns")
	r.set("taskgraph.bind_tables", float64(c.tables)/ops, "count")
	r.set("taskgraph.bind_contention_ns_per_table", ratio(float64(bindCont.dur), float64(c.contTables)), "ns")
	r.set("taskgraph.replay_ns_per_task_lane", ratio(float64(replay.dur), float64(c.taskLanes)), "ns")
	r.set("taskgraph.replay_task_lanes", float64(c.taskLanes)/ops, "count")
	r.set("core.batch_width", ratio(float64(c.lanes), float64(c.replays)), "count")
	r.set("core.struct_hit_pct", 100*ratio(float64(c.structHits), float64(c.structHits+c.structMisses)), "%")
	r.set("server.report_hit_pct", 100*ratio(float64(c.reportHits), float64(c.reportHits+c.reportMisses)), "%")
	r.set("cost.price_ns_per_point", ratio(float64(price.dur), float64(c.priced)), "ns")
	r.set("dse.enumerate_ms", ms("dse.enumerate"), "ms")
	r.set("dse.driver_self_ms", float64(t.layer("dse.sweep").self)/ops/1e6, "ms")
	r.set("clusterdse.driver_self_ms", float64(t.layer("clusterdse.sweep").self)/ops/1e6, "ms")
	r.set("trace.coverage_pct", t.coveragePct(), "%")
}

// zeroServerLayers reports the serving-layer metrics of a sweep workload,
// which makes no requests: no decode, engine, encode, or HTTP spans.
func zeroServerLayers(r *run) {
	r.set("server.decode_us_per_req", 0, "us")
	r.set("server.engine_us_per_req", 0, "us")
	r.set("server.encode_ns_per_point", 0, "ns")
	r.set("server.http_us_per_req", 0, "us")
}

// printLayers prints each span name's count and per-op self and total
// time, largest self time first: where a traced op's time went.
func printLayers(r *run, t traceSummary, ops float64) {
	names := make([]string, 0, len(t.layers))
	for n := range t.layers {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.layers[names[i]].self > t.layers[names[j]].self })
	r.note("%-28s %9s %12s %12s", "span", "count/op", "self ms/op", "total ms/op")
	for _, n := range names {
		l := t.layers[n]
		r.note("%-28s %9.1f %12.3f %12.3f", n, float64(l.count)/ops, float64(l.self)/ops/1e6, float64(l.dur)/ops/1e6)
	}
	r.note("trace: %d ops, %d root spans, coverage %.1f%%", int(ops), t.roots, t.coveragePct())
}
