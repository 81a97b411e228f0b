package taskgraph

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"vtrain/internal/parallel"
)

func traceGraph(t *testing.T) (boundGraph, Result, []Span) {
	t.Helper()
	plan := parallel.Plan{Tensor: 2, Data: 2, Pipeline: 2, MicroBatch: 1, GlobalBatch: 8, GradientBuckets: 2}
	g := lower(t, plan, TaskLevel)
	res, spans, err := g.g.ReplayTraceContended(g.tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, res, spans
}

func TestSimulateTraceMatchesSimulate(t *testing.T) {
	g, res, spans := traceGraph(t)
	plain, err := g.g.ReplayContended(g.tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.IterTime != plain.IterTime || res.Executed != plain.Executed {
		t.Fatal("trace capture changed the simulation result")
	}
	if len(spans) != res.Executed {
		t.Fatalf("spans = %d, executed = %d", len(spans), res.Executed)
	}
}

func TestSpansWellFormed(t *testing.T) {
	_, res, spans := traceGraph(t)
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %q ends before it starts", s.Label)
		}
		if s.End > res.IterTime+1e-12 {
			t.Fatalf("span %q ends after the iteration", s.Label)
		}
	}
}

func TestSpansNonOverlappingPerResource(t *testing.T) {
	// Two tasks on the same (device, stream) must never overlap — the
	// resource exclusivity at the heart of Algorithm 1.
	_, _, spans := traceGraph(t)
	byRes := map[[2]int][]Span{}
	for _, s := range spans {
		k := [2]int{s.Device, int(s.Stream)}
		byRes[k] = append(byRes[k], s)
	}
	for k, ss := range byRes {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		for i := 1; i < len(ss); i++ {
			if ss[i].Start < ss[i-1].End-1e-12 {
				t.Fatalf("resource %v: %q overlaps %q", k, ss[i].Label, ss[i-1].Label)
			}
		}
	}
}

func TestClassSecondsAccounted(t *testing.T) {
	_, res, _ := traceGraph(t)
	for _, class := range []string{"FwdMHA", "BwdFFN", "WeightUpdate", "AllReduceTP", "AllReduceDP", "P2P"} {
		if res.ClassSeconds[class] <= 0 {
			t.Errorf("class %q has no attributed time", class)
		}
	}
	// Class totals must equal total busy time.
	var classTotal, busyTotal float64
	for _, v := range res.ClassSeconds {
		classTotal += v
	}
	for i := range res.ComputeBusy {
		busyTotal += res.ComputeBusy[i] + res.CommBusy[i]
	}
	if diff := classTotal - busyTotal; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("class seconds %.6g != busy seconds %.6g", classTotal, busyTotal)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	_, _, spans := traceGraph(t)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("events = %d, want %d", len(doc.TraceEvents), len(spans))
	}
	for _, e := range doc.TraceEvents {
		if e.Phase != "X" || e.Dur < 0 || e.TS < 0 {
			t.Fatalf("malformed event %+v", e)
		}
		if e.TID != 0 && e.TID != 1 {
			t.Fatalf("unexpected thread id %d", e.TID)
		}
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("empty trace is not valid JSON")
	}
}
