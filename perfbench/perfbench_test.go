package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestPercentileSelection(t *testing.T) {
	xs := make([]float64, 1010)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1010, reversed: selection must sort
	}
	v, beyond, err := percentile(xs, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest rank: ceil(0.99 * 1010) = 1000, so the 1000th smallest.
	if v != 1000 || beyond != 10 {
		t.Errorf("p99 = %v with %d beyond, want 1000 with 10", v, beyond)
	}
	if v, beyond, err := percentile(xs, 50); err != nil || v != 505 || beyond != 505 {
		t.Errorf("p50 = %v with %d beyond (%v), want 505 with 505", v, beyond, err)
	}
	if xs[0] != 1010 {
		t.Error("percentile reordered its input")
	}
	// 999 samples leave only 9 beyond the p99: refused, with the count.
	_, beyond, err = percentile(xs[:999], 99)
	if err == nil || beyond != 9 {
		t.Errorf("p99 of 999 samples: beyond %d, err %v; want a refusal with 9 beyond", beyond, err)
	}
	if _, _, err := percentile(nil, 50); err == nil {
		t.Error("percentile of no samples should fail")
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestLatencyWindows(t *testing.T) {
	var lw latWindows
	batch := make([]float64, 600)
	for i := range batch {
		batch[i] = float64(i)
	}
	lw.add(batch) // 600: window still open
	if len(lw.p99s) != 0 {
		t.Fatal("window closed before it held enough samples for a p99")
	}
	lw.add(batch) // 1200: closes, p99 of 0..599 twice is rank ceil(11.88) = 1188 -> 593
	lw.add(batch)
	if len(lw.p99s) != 1 || lw.p99s[0] != 593 || lw.p50s[0] != 299 || lw.samples != 1200 {
		t.Errorf("windows p50 %v p99 %v samples %d, want [299] [593] 1200", lw.p50s, lw.p99s, lw.samples)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100) with children [10,40) and [30,60) (overlapping: the
	// union covers 50) and [90,120) (clipped to the root: covers 10).
	// Child [10,40) has one grandchild [15,25).
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 0, Start: 90, End: 120},
		{Name: "a", Parent: 1, Start: 15, End: 25},
	}
	sum := summarize(spans)
	if got := sum.layer("root").self; got != 40 {
		t.Errorf("root self = %d, want 100 - 50 - 10 = 40", got)
	}
	if a := sum.layer("a"); a.count != 2 || a.dur != 40 || a.self != 20+10 {
		t.Errorf("a = %+v, want 2 spans, 40 total, 30 self", a)
	}
	if sum.roots != 1 || sum.rootDur != 100 || sum.rootCovered != 60 || sum.coveragePct() != 60 {
		t.Errorf("roots %d dur %d covered %d coverage %v, want 1, 100, 60, 60%%",
			sum.roots, sum.rootDur, sum.rootCovered, sum.coveragePct())
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	rec.newOp()
	outer := rec.begin("outer")
	inner := rec.begin("inner")
	rec.end(inner)
	rec.end(outer)
	rec.newOp()
	rec.end(rec.begin("next"))
	s := rec.spans
	if len(s) != 3 || s[0].Parent != -1 || s[1].Parent != 0 || s[2].Parent != -1 {
		t.Fatalf("parents wrong: %+v", s)
	}
	if s[0].Op != s[1].Op || s[2].Op == s[0].Op {
		t.Errorf("op IDs wrong: %+v", s)
	}
	if s[1].Start < s[0].Start || s[1].End > s[0].End {
		t.Errorf("child outside parent: %+v", s)
	}
	var off *recorder // spans off: every call is a no-op
	off.newOp()
	off.end(off.begin("x"))
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b, c := generate(7), generate(7), generate(8)
	same := func(x, y []request) bool {
		for i := range x {
			if x[i].path != y[i].path || !bytes.Equal(x[i].body, y[i].body) {
				return false
			}
		}
		return len(x) == len(y)
	}
	if !same(a, b) {
		t.Error("the same seed gave different request sequences")
	}
	if same(a, c) {
		t.Error("different seeds gave the same request sequence")
	}
	count := map[string]int{}
	for _, r := range a {
		count[r.path]++
	}
	if len(a) != roundLen || count["/v1/sweep"] != roundSweeps || count["/v1/clusterdse"] != roundClusters {
		t.Errorf("round of %d with counts %v", len(a), count)
	}
}

func TestCanonical(t *testing.T) {
	stream := []byte("{\"point\":{\"b\":1}}\n{\"point\":{\"a\":1}}\n{\"summary\":{\"points\":2}}\n")
	if got := canonical("/v1/sweep", stream); got != "{\"point\":{\"a\":1}}\n{\"point\":{\"b\":1}}" {
		t.Errorf("canonical = %q", got)
	}
	if n := points("/v1/sweep", stream); n != 2 {
		t.Errorf("points = %d, want 2", n)
	}
}

// TestContendedDigest holds the benchmark's digest formula to the
// repository's pinned contended-sweep fixture, and the serial replica to
// the driver's points.
func TestContendedDigest(t *testing.T) {
	w := sweepSpecs()["cluster-contended"]
	res, err := w.runDriver(func(time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.check(res); err != nil {
		t.Fatal(err)
	}
	rep, pts, err := w.runReplica(newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkReplica(rep, pts, res); err != nil {
		t.Fatal(err)
	}
}

// TestWorkloadSmoke runs one short untraced and traced run of every other
// workload and checks that they report every metric and no failure.
func TestWorkloadSmoke(t *testing.T) {
	endToEnd := []string{"setup_s", "points_per_s", "req_per_s", "latency_ms_p50", "latency_ms_p99",
		"alloc_mb_per_op", "live_heap_mb"}
	perLayer := []string{"taskgraph.lower_ms", "taskgraph.replay_ns_per_task_lane", "core.batch_width",
		"server.decode_us_per_req", "driver.parallel_x", "trace.coverage_pct", "trace.overhead_pct"}
	for _, name := range []string{"dse-cold", "cluster-ideal", "server-mixed"} {
		t.Run(name, func(t *testing.T) {
			for trace, want := range [][]string{endToEnd, perLayer} {
				r := newRun()
				var err error
				switch {
				case name == "server-mixed" && trace == 0:
					err = serverMeasure(1, 0, r)
				case name == "server-mixed":
					err = serverTrace(1, 0, r)
				case trace == 0:
					err = sweepMeasure(sweepSpecs()[name], 0, r)
				default:
					err = sweepTrace(sweepSpecs()[name], 0, r)
				}
				if err != nil {
					t.Fatal(err)
				}
				if r.res.Failed != 0 || r.res.Attempted == 0 {
					t.Fatalf("trace=%d: %d of %d failed: %s", trace, r.res.Failed, r.res.Attempted, strings.Join(r.notes, "\n"))
				}
				for _, m := range want {
					if _, ok := r.res.Metrics[m]; !ok {
						t.Errorf("trace=%d: metric %s missing", trace, m)
					}
				}
			}
		})
	}
}
