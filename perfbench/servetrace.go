package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"vtrain/internal/clusterdse"
	"vtrain/internal/comm"
	"vtrain/internal/core"
	"vtrain/internal/cost"
	"vtrain/internal/dse"
	"vtrain/internal/hw"
	"vtrain/internal/model"
	"vtrain/internal/parallel"
	"vtrain/internal/resilience"
	"vtrain/internal/server"
	"vtrain/internal/taskgraph"
)

// decodeStrict decodes one JSON body the way the server does: unknown
// fields and trailing data are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after request body")
	}
	return nil
}

// pointLine is the NDJSON envelope of one streamed point.
type pointLine struct {
	Point any `json:"point"`
}

// directResult is what the engine-direct path produced for one request.
type directResult struct {
	body  []byte               // the encoded response, as the server writes it
	iters map[pointKey]float64 // each point's iteration time
	req   any                  // the decoded request
}

// decodeSpan decodes a request body of type T inside a server.decode span.
func decodeSpan[T any](rec *recorder, body []byte) (T, error) {
	var q T
	sp := rec.begin("server.decode")
	err := decodeStrict(body, &q)
	rec.end(sp)
	return q, err
}

// direct serves one request by calling server.Engine directly, with spans
// around decode, the engine call, and each point's encoding.
func direct(rec *recorder, eng *server.Engine, req request) (directResult, error) {
	res := directResult{iters: make(map[pointKey]float64)}
	var buf bytes.Buffer
	line := func(v any) {
		sp := rec.begin("server.encode")
		buf.Write(mustJSON(pointLine{v}))
		buf.WriteByte('\n')
		rec.end(sp)
	}
	var err error
	switch req.path {
	case "/v1/simulate":
		var q server.SimulateRequest
		if q, err = decodeSpan[server.SimulateRequest](rec, req.body); err != nil {
			return res, err
		}
		res.req = q
		sp := rec.begin("server.engine")
		var out server.SimulateOutcome
		out, err = eng.Simulate(q)
		rec.end(sp)
		if err != nil {
			return res, err
		}
		sp = rec.begin("server.encode")
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err = enc.Encode(out.Result())
		rec.end(sp)
		res.iters[pointKey{plan: out.Plan}] = out.Report.IterTime
	case "/v1/sweep":
		var q server.SweepRequest
		if q, err = decodeSpan[server.SweepRequest](rec, req.body); err != nil {
			return res, err
		}
		res.req = q
		sp := rec.begin("server.engine")
		var run *server.SweepRun
		if run, err = eng.PrepareSweep(q); err == nil {
			_, err = run.Run(func(p dse.Point) {
				res.iters[pointKey{plan: p.Plan}] = p.Report.IterTime
				line(server.NewSweepPoint(p, run.Cluster(), run.TotalTokens()))
			})
		}
		rec.end(sp)
	case "/v1/clusterdse":
		var q server.ClusterDSERequest
		if q, err = decodeSpan[server.ClusterDSERequest](rec, req.body); err != nil {
			return res, err
		}
		res.req = q
		sp := rec.begin("server.engine")
		var run *server.ClusterRun
		if run, err = eng.PrepareClusterDSE(q); err == nil {
			_, err = run.Run(func(p clusterdse.Point) {
				res.iters[pointKey{p.Offering.Name, p.Nodes, p.Plan}] = p.Report.IterTime
				line(server.NewClusterPoint(p))
			})
		}
		rec.end(sp)
	}
	res.body = buf.Bytes()
	return res, err
}

// poolKey mirrors the engine's simulator pool key.
type poolKey struct {
	cluster    hw.Cluster
	fid        taskgraph.Fidelity
	contention bool
}

// pooled is one replica pool entry: a simulator for shapes and the
// profiler, and the communication model its bindings use.
type pooled struct {
	sim *core.Simulator
	cm  taskgraph.CommTimer
}

// serverReplica mirrors server.Engine from public calls: a pool of
// simulators keyed like the engine's, each with its own structural and
// report cache, plus one cluster-sweep root per fidelity.
type serverReplica struct {
	*replica
	pool  map[poolKey]pooled
	roots map[taskgraph.Fidelity]*core.Simulator
}

func newServerReplica(rec *recorder) *serverReplica {
	return &serverReplica{
		replica: newReplica(rec),
		pool:    make(map[poolKey]pooled),
		roots:   make(map[taskgraph.Fidelity]*core.Simulator),
	}
}

func (s *serverReplica) pooled(cl hw.Cluster, fid taskgraph.Fidelity, contention bool) (pooled, error) {
	k := poolKey{cl, fid, contention}
	if p, ok := s.pool[k]; ok {
		return p, nil
	}
	sim, err := core.New(cl, core.WithFidelity(fid), core.WithCacheSize(0))
	if err != nil {
		return pooled{}, err
	}
	p := pooled{sim, comm.NewModel(cl)}
	s.pool[k] = p
	return p, nil
}

// serve re-does the engine's work for one decoded request and returns
// its points.
func (s *serverReplica) serve(q any) ([]point, error) {
	switch q := q.(type) {
	case server.SimulateRequest:
		it, plan, err := s.simulate(q)
		return []point{{pointKey{plan: plan}, it}}, err
	case server.SweepRequest:
		sp := s.rec.begin("descfile.resolve")
		m, err := q.Model.Resolve()
		var cl hw.Cluster
		if err == nil {
			cl, err = q.Cluster.Resolve()
		}
		s.rec.end(sp)
		if err != nil {
			return nil, err
		}
		fid, err := server.ParseFidelity(q.Fidelity, taskgraph.OperatorLevel)
		if err != nil {
			return nil, err
		}
		p, err := s.pooled(cl, fid, q.Contention)
		if err != nil {
			return nil, err
		}
		space := dse.DefaultSpace(m, q.GlobalBatch)
		space.MaxMicroBatches = 512
		overrideAxes(&space, q.TensorWidths, q.DataWidths, q.PipelineDepths, q.MicroBatches)
		if q.MaxGPUs > 0 {
			space.MaxGPUs = q.MaxGPUs
		}
		if q.MaxMicroBatches > 0 {
			space.MaxMicroBatches = q.MaxMicroBatches
		}
		return s.dseSweep(p.sim, fid, p.sim, m, space, q.Contention, q.TotalTokens)
	case server.ClusterDSERequest:
		sp := s.rec.begin("descfile.resolve")
		m, err := q.Model.Resolve()
		var offs []hw.Offering
		if err == nil {
			offs, err = clusterdse.SelectOfferings(q.Offerings, q.CrossInterconnects)
		}
		s.rec.end(sp)
		if err != nil {
			return nil, err
		}
		fid, err := server.ParseFidelity(q.Fidelity, taskgraph.OperatorLevel)
		if err != nil {
			return nil, err
		}
		root := s.roots[fid]
		if root == nil {
			if root, err = core.New(hw.Catalog()[0].Cluster(1), core.WithFidelity(fid)); err != nil {
				return nil, err
			}
			s.roots[fid] = root
		}
		space := clusterdse.DefaultSpace(m, q.GlobalBatch, q.TotalTokens, q.NodeCounts)
		space.Offerings, space.Contention, space.Resilience = offs, q.Contention, nil
		if opts, on := q.Resilience.Options(); on {
			space.Resilience = &opts
		}
		overrideAxes(&space.Plans, q.TensorWidths, q.DataWidths, q.PipelineDepths, q.MicroBatches)
		if q.MaxMicroBatches > 0 {
			space.Plans.MaxMicroBatches = q.MaxMicroBatches
		}
		return s.clusterSweep(root, fid, m, space)
	}
	return nil, fmt.Errorf("replica: unknown request %T", q)
}

func overrideAxes(s *dse.Space, t, d, p, mb []int) {
	if len(t) > 0 {
		s.TensorWidths = t
	}
	if len(d) > 0 {
		s.DataWidths = d
	}
	if len(p) > 0 {
		s.PipelineDepths = p
	}
	if len(mb) > 0 {
		s.MicroBatches = mb
	}
}

// simulate mirrors Engine.Simulate: resolve, report-cache lookup, and on a
// miss the width-1 path (structure, bind, scalar replay), then pricing.
func (s *serverReplica) simulate(q server.SimulateRequest) (float64, parallel.Plan, error) {
	root := s.rec.begin("core.simulate")
	defer s.rec.end(root)
	sp := s.rec.begin("descfile.resolve")
	m, plan, cl, err := q.Description.Resolve()
	s.rec.end(sp)
	if err != nil {
		return 0, plan, err
	}
	fid, err := server.ParseFidelity(q.Fidelity, taskgraph.TaskLevel)
	if err != nil {
		return 0, plan, err
	}
	p, err := s.pooled(cl, fid, q.Contention)
	if err != nil {
		return 0, plan, err
	}
	key := reportKey{p.sim, m, plan}
	iter, ok := s.reports[key]
	if ok {
		s.cnt.reportHits++
	} else {
		s.cnt.reportMisses++
		if iter, err = s.replayOne(p, m, plan, cl, fid, q.Contention); err != nil {
			return 0, plan, err
		}
		s.reports[key] = iter
	}
	sp = s.rec.begin("cost.price")
	cost.Utilization(m, plan.GlobalBatch, iter, plan.GPUs(), cl.Node.GPU)
	if q.TotalTokens > 0 {
		tr := cost.Train(m, plan.GlobalBatch, iter, plan.GPUs(), q.TotalTokens, cl)
		if opts, on := q.ResilienceOptions(); on {
			var mod resilience.Model
			if mod, err = resilience.For(m, cl, plan.GPUs(), opts); err == nil {
				cost.ApplyResilience(tr, mod)
			}
		}
	}
	s.rec.end(sp)
	s.cnt.priced++
	return iter, plan, err
}

// replayOne is the report-cache miss path of Simulate.
func (s *serverReplica) replayOne(p pooled, m model.Config, plan parallel.Plan, cl hw.Cluster, fid taskgraph.Fidelity, contention bool) (float64, error) {
	g, err := s.structure(structKey{p.sim, p.sim.PlanShape(m, plan)}, fid, m, plan, cl, p.sim.Profiler(), 1)
	if err != nil {
		return 0, err
	}
	s.profs[p.sim.Profiler()] = true
	sp := s.rec.begin("taskgraph.bind")
	tbl := g.Bind(p.sim.Profiler(), p.cm, plan, cl)
	s.rec.end(sp)
	defer tbl.Release()
	s.cnt.tables++
	var ct *taskgraph.ContentionTable
	if contention {
		sp = s.rec.begin("taskgraph.bind_contention")
		ct = g.BindContention(plan, cl, tbl)
		s.rec.end(sp)
		s.cnt.contTables++
	}
	sp = s.rec.begin("taskgraph.replay")
	res, err := g.ReplayContended(tbl, ct)
	s.rec.end(sp)
	s.cnt.replays++
	s.cnt.lanes++
	s.cnt.taskLanes += int64(g.NumTasks())
	return res.IterTime, err
}

// serialRound is one serial pass over the sequence: per request, the
// engine-direct path, the HTTP path, and the replica, each checked.
type serialRound struct {
	replicaWall time.Duration
	cnt         counters
	profHits    int
	profMisses  int
}

func runSerial(rec *recorder, seq []request, base baselines, r *run) (serialRound, error) {
	var out serialRound
	s, err := warmServer(base)
	if err != nil {
		return out, err
	}
	defer s.stop()
	eng := server.NewEngine()
	rep := newServerReplica(rec)
	step := func(req request, timed bool) error {
		rec.newOp()
		root := rec.begin("server.request")
		defer rec.end(root)
		sp := rec.begin("server.direct")
		d, err := direct(rec, eng, req)
		rec.end(sp)
		if err != nil {
			return err
		}
		if err := base.check(req, d.body); err != nil {
			return fmt.Errorf("engine-direct: %w", err)
		}
		sp = rec.begin("server.http")
		body, err := s.post(req)
		rec.end(sp)
		if err == nil {
			err = base.check(req, body)
		}
		if err != nil {
			return err
		}
		t := time.Now()
		pts, err := rep.serve(d.req)
		if timed {
			out.replicaWall += time.Since(t)
		}
		if err != nil {
			return err
		}
		return matchPoints(req.path, pts, d.iters)
	}
	for _, req := range warmSet() {
		if err := step(req, false); err != nil {
			return out, err
		}
	}
	for _, req := range seq {
		r.op(step(req, true))
	}
	if got, want := uint64(rep.cnt.lowerings), eng.CacheStats().Lowerings; got != want {
		r.op(fmt.Errorf("server replica lowered %d graphs, engine %d", got, want))
	}
	out.cnt = rep.cnt
	out.profHits, out.profMisses = rep.profilerStats()
	return out, nil
}

// serverTrace is the traced run of server-mixed. Each cycle runs an
// untraced closed-loop round (the real driver), a serial round with spans
// off, and a serial round with spans on.
func serverTrace(seed uint64, seconds float64, r *run) error {
	seq := generate(seed)
	base, err := newBaselines(seq)
	if err != nil {
		return err
	}
	rec := newRecorder()
	var (
		loop, off, on []float64
		cnt           counters
		hits, misses  int
		gcs, pause    uint64
		reqs, cycles  int
	)
	start := time.Now()
	for elapsedSince(start) < seconds || cycles < 2 {
		s, err := warmServer(base)
		if err != nil {
			return err
		}
		g0, p0 := readMem().gcCycles, gcPauseNs()
		st := closedLoop(s, seq, base)
		gcs += readMem().gcCycles - g0
		pause += gcPauseNs() - p0
		if err := s.stop(); err != nil {
			return err
		}
		for _, e := range st.errs {
			r.op(e)
		}
		reqs += len(seq)
		loop = append(loop, st.wall.Seconds())

		o, err := runSerial(nil, seq, base, r)
		if err != nil {
			return err
		}
		off = append(off, o.replicaWall.Seconds())
		t, err := runSerial(rec, seq, base, r)
		if err != nil {
			return err
		}
		on = append(on, t.replicaWall.Seconds())
		cnt.add(t.cnt)
		hits, misses = hits+t.profHits, misses+t.profMisses
		cycles++
	}
	sum := summarize(rec.spans)
	ops := float64(cycles * len(seq))
	setLayers(r, sum, cnt, ops, hits, misses)
	direct := sum.layer("server.direct")
	r.set("server.decode_us_per_req", float64(sum.layer("server.decode").dur)/ops/1e3, "us")
	r.set("server.engine_us_per_req", float64(sum.layer("server.engine").self)/ops/1e3, "us")
	enc := sum.layer("server.encode")
	r.set("server.encode_ns_per_point", ratio(float64(enc.dur), float64(enc.count)), "ns")
	r.set("server.http_us_per_req", float64(sum.layer("server.http").dur-direct.dur)/ops/1e3, "us")
	r.set("driver.parallel_x", median(off)/median(loop), "x")
	r.set("runtime.gc_count", float64(gcs)/float64(reqs), "count")
	r.set("runtime.gc_pause_ms", float64(pause)/float64(reqs)/1e6, "ms")
	r.set("trace.overhead_pct", 100*(median(on)-median(off))/median(off), "%")
	r.note("seed %d: %d cycles; closed-loop round %.1f ms, serial replica off %.1f ms, on %.1f ms (medians)",
		seed, cycles, median(loop)*1e3, median(off)*1e3, median(on)*1e3)
	printLayers(r, sum, ops)
	r.spans = rec.spans
	return nil
}
