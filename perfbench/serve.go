package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vtrain/internal/descfile"
	"vtrain/internal/server"
)

// roundLen is the number of requests in one round of server-mixed. Every
// round replays the same seeded sequence against a freshly started,
// freshly warmed server, so the report-cache hit share is a property of
// the sequence, not of how many requests a fast build manages to send.
const roundLen = 240

// clients is the closed-loop client count: each sends its next request
// only after the previous response has been read in full.
const clients = 2

// request is one generated request: an endpoint and its body bytes.
type request struct {
	path string
	body []byte
}

// simulatePlans is the /v1/simulate grid: Megatron-18.4B at task fidelity
// on 64 A100 nodes, pipeline depth 8 and 32 micro-batches per pipeline, so
// every plan shares one structural shape (~50k tasks) and a report-cache
// miss binds and replays that graph at width 1.
func simulateBodies() [][]byte {
	var out [][]byte
	for _, contention := range []bool{false, true} {
		for _, tokens := range []uint64{0, 300_000_000_000} {
			for _, t := range []int{8, 4, 2} {
				for _, d := range []int{8, 4, 2} {
					for _, mb := range []int{1, 2} {
						req := server.SimulateRequest{
							Description: descfile.Description{
								Model:   descfile.ModelSection{Preset: "megatron-18.4b"},
								Cluster: descfile.ClusterSection{Nodes: 64},
								Plan: descfile.PlanSection{Tensor: t, Data: d, Pipeline: 8, MicroBatch: mb,
									GlobalBatch: 32 * d * mb, GradientBuckets: 2},
								TotalTokens: tokens,
							},
							Contention: contention,
						}
						out = append(out, mustJSON(req))
					}
				}
			}
		}
	}
	return out
}

// sweepBodies are small /v1/sweep requests over Megatron-3.6B.
func sweepBodies() [][]byte {
	return [][]byte{
		mustJSON(server.SweepRequest{
			Model: descfile.ModelSection{Preset: "megatron-3.6b"}, Cluster: descfile.ClusterSection{Nodes: 1},
			GlobalBatch: 64, TensorWidths: []int{2, 4, 8}, DataWidths: []int{1, 2, 4},
			PipelineDepths: []int{1, 2}, MicroBatches: []int{1, 2},
		}),
		mustJSON(server.SweepRequest{
			Model:       descfile.ModelSection{Preset: "megatron-3.6b"},
			Cluster:     descfile.ClusterSection{Nodes: 2, Offering: "h100-sxm-80gb"},
			GlobalBatch: 128, TotalTokens: 20_000_000_000, TensorWidths: []int{2, 4, 8}, DataWidths: []int{1, 2},
			PipelineDepths: []int{1, 2}, MicroBatches: []int{1, 2},
		}),
	}
}

// clusterBodies are small /v1/clusterdse requests over Megatron-3.6B; the
// last one turns contention on.
func clusterBodies() [][]byte {
	return [][]byte{
		mustJSON(server.ClusterDSERequest{
			Model: descfile.ModelSection{Preset: "megatron-3.6b"}, GlobalBatch: 64, TotalTokens: 20_000_000_000,
			NodeCounts: []int{1}, Offerings: []string{"a100-sxm-80gb"},
			TensorWidths: []int{2, 4}, DataWidths: []int{2, 4}, PipelineDepths: []int{1}, MicroBatches: []int{1},
		}),
		mustJSON(server.ClusterDSERequest{
			Model: descfile.ModelSection{Preset: "megatron-3.6b"}, GlobalBatch: 64, TotalTokens: 20_000_000_000,
			NodeCounts: []int{2}, Offerings: []string{"h100-sxm-80gb"},
			TensorWidths: []int{2, 4}, DataWidths: []int{4, 8}, PipelineDepths: []int{1}, MicroBatches: []int{1},
		}),
		mustJSON(server.ClusterDSERequest{
			Model: descfile.ModelSection{Preset: "megatron-3.6b"}, GlobalBatch: 64, TotalTokens: 20_000_000_000,
			NodeCounts: []int{1, 2}, Offerings: []string{"a100-sxm-80gb"}, Contention: true,
			TensorWidths: []int{2, 4}, DataWidths: []int{2, 4}, PipelineDepths: []int{1, 2}, MicroBatches: []int{1},
		}),
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return b
}

// Per-round request counts by endpoint: mostly /v1/simulate, plus small
// sweeps. Fixed counts keep every round's work the same whatever the seed.
const (
	roundSweeps   = 24
	roundClusters = 12
)

// generate returns the seeded request sequence of one round: every
// simulate body once (so each plan in the grid misses the report cache
// once per round), further simulate bodies drawn uniformly (repeats, which
// hit), roundSweeps sweeps and roundClusters cluster sweeps drawn evenly
// from their bodies, all in a seeded order.
func generate(seed uint64) []request {
	sims, sweeps, clusters := simulateBodies(), sweepBodies(), clusterBodies()
	rng := rand.New(rand.NewPCG(seed, 0x7654524149))
	seq := make([]request, 0, roundLen)
	for _, b := range sims {
		seq = append(seq, request{"/v1/simulate", b})
	}
	for i := 0; i < roundSweeps; i++ {
		seq = append(seq, request{"/v1/sweep", sweeps[i%len(sweeps)]})
	}
	for i := 0; i < roundClusters; i++ {
		seq = append(seq, request{"/v1/clusterdse", clusters[i%len(clusters)]})
	}
	for len(seq) < roundLen {
		seq = append(seq, request{"/v1/simulate", sims[rng.IntN(len(sims))]})
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// warmSet is the pass that warms a fresh server before timing: every
// distinct sweep body, and one simulate per structural-cache pool (ideal
// and contended), so the timed requests lower nothing.
func warmSet() []request {
	sims := simulateBodies()
	warm := []request{{"/v1/simulate", sims[0]}, {"/v1/simulate", sims[len(sims)/2]}}
	for _, b := range sweepBodies() {
		warm = append(warm, request{"/v1/sweep", b})
	}
	for _, b := range clusterBodies() {
		warm = append(warm, request{"/v1/clusterdse", b})
	}
	return warm
}

// canonical makes a response comparable across servers: a sweep stream's
// point lines sorted (their order depends on scheduling) and its summary
// dropped (its counters are cumulative over the server's life).
func canonical(path string, body []byte) string {
	if path == "/v1/simulate" {
		return string(body)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if n := len(lines); n > 0 && strings.HasPrefix(lines[n-1], `{"summary"`) {
		lines = lines[:n-1]
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// points counts the design points a response carries.
func points(path string, body []byte) int {
	if path == "/v1/simulate" {
		return 1
	}
	return bytes.Count(body, []byte(`{"point"`))
}

// liveServer is a vtrain server on a loopback port.
type liveServer struct {
	srv    *server.Server
	url    string
	client *http.Client
	done   chan error
}

func startServer() (*liveServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &liveServer{
		srv:    server.New(server.Config{}),
		url:    "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}},
		done:   make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(l) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *liveServer) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// post sends one request and reads the whole response.
func (s *liveServer) post(req request) ([]byte, error) {
	resp, err := s.client.Post(s.url+req.path, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", req.path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// baselines answers every distinct request once on a cold server: the
// reference every later response is byte-compared with.
type baselines map[string]string

func newBaselines(seq []request) (baselines, error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	base := make(baselines)
	for _, req := range append(warmSet(), seq...) {
		if _, ok := base[string(req.body)]; ok {
			continue
		}
		body, err := s.post(req)
		if err != nil {
			s.stop()
			return nil, err
		}
		base[string(req.body)] = canonical(req.path, body)
	}
	return base, s.stop()
}

func (b baselines) check(req request, body []byte) error {
	if canonical(req.path, body) != b[string(req.body)] {
		return fmt.Errorf("%s response differs from the cold-pass baseline for body %s", req.path, req.body)
	}
	return nil
}

// warmServer starts a server and sends it the warm set.
func warmServer(base baselines) (*liveServer, error) {
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	for _, req := range warmSet() {
		body, err := s.post(req)
		if err == nil {
			err = base.check(req, body)
		}
		if err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// roundStats is one closed-loop round.
type roundStats struct {
	wall   time.Duration
	points int
	lat    []float64 // ms, in completion order
	errs   []error   // per request, in sequence order
}

// closedLoop sends seq to s from clients goroutines, each waiting for its
// response before taking the next request. Responses are checked against
// the baselines after the round, outside the timed loop.
func closedLoop(s *liveServer, seq []request, base baselines) roundStats {
	var (
		next   atomic.Int64
		mu     sync.Mutex
		st     = roundStats{errs: make([]error, len(seq))}
		bodies = make([][]byte, len(seq))
		wg     sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				t := time.Now()
				bodies[i], st.errs[i] = s.post(seq[i])
				d := time.Since(t)
				mu.Lock()
				st.lat = append(st.lat, float64(d)/1e6)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	for i, req := range seq {
		if st.errs[i] == nil {
			st.errs[i] = base.check(req, bodies[i])
		}
		st.points += points(req.path, bodies[i])
	}
	return st
}

// serverMeasure is the untraced run of server-mixed: rounds of (start and
// warm a fresh server, then send the round's sequence closed-loop) until
// the measured time is used and at least minWindows latency windows closed.
func serverMeasure(seed uint64, seconds float64, r *run) error {
	seq := generate(seed)
	base, err := newBaselines(seq)
	if err != nil {
		return err
	}
	var (
		setup, rates, prates []float64
		lw                   latWindows
		measured             float64
		alloc                uint64
		reqs                 int
		repHits, repMisses   uint64
		last                 *server.Engine
	)
	for measured < seconds || len(lw.p99s) < minWindows {
		t := time.Now()
		s, err := warmServer(base)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
		st0 := s.srv.Engine().CacheStats()
		a0 := readMem().allocBytes
		st := closedLoop(s, seq, base)
		alloc += readMem().allocBytes - a0
		st1 := s.srv.Engine().CacheStats()
		repHits += st1.ReportHits - st0.ReportHits
		repMisses += st1.ReportMisses - st0.ReportMisses
		last = s.srv.Engine()
		if err := s.stop(); err != nil {
			return err
		}
		for _, e := range st.errs {
			r.op(e)
		}
		reqs += len(seq)
		lw.add(st.lat)
		rates = append(rates, float64(len(seq))/st.wall.Seconds())
		prates = append(prates, float64(st.points)/st.wall.Seconds())
		measured += st.wall.Seconds()
	}
	live := liveHeap()
	last.CacheStats() // keeps the last engine's caches live through the GC

	r.set("setup_s", median(setup), "s")
	r.set("req_per_s", median(rates), "1/s")
	r.set("points_per_s", median(prates), "1/s")
	setLatency(r, &lw, "request round trip")
	r.set("alloc_mb_per_op", float64(alloc)/float64(reqs)/1e6, "MB")
	r.set("live_heap_mb", float64(live)/1e6, "MB")
	r.note("seed %d: %d rounds of %d requests (%d clients, closed loop) in %.2fs measured", seed, len(rates), roundLen, clients, measured)
	r.note("report-cache hit share %.1f%% (%d hits, %d misses)",
		100*float64(repHits)/float64(max(repHits+repMisses, 1)), repHits, repMisses)
	return nil
}
