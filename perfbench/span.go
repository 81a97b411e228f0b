package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one sweep or request share
// Op; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the traced run. A nil *recorder is the
// spans-off replica: every method is a no-op and takes no clock reading.
// The replica is single-threaded, so an open-span stack gives each span its
// parent.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32
	op    int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp starts a new sweep or request: spans begun until the next newOp
// share its ID.
func (r *recorder) newOp() {
	if r != nil {
		r.op++
	}
}

func (r *recorder) begin(name string) int32 {
	if r == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent, Start: int64(time.Since(r.epoch))})
	id := int32(len(r.spans) - 1)
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
}

// layerTotals is the aggregate of one span name.
type layerTotals struct {
	count int
	dur   int64 // summed durations
	self  int64 // summed self times
}

// traceSummary is what the per-layer metrics are computed from.
type traceSummary struct {
	layers map[string]*layerTotals
	// rootDur and rootCovered sum, over root spans, their durations and
	// the part of them covered by child spans.
	rootDur, rootCovered int64
	roots                int
}

func (t traceSummary) layer(name string) layerTotals {
	if l := t.layers[name]; l != nil {
		return *l
	}
	return layerTotals{}
}

// coveragePct is the share of root-span time that child (layer) spans
// account for; the rest is the root's own glue code.
func (t traceSummary) coveragePct() float64 {
	if t.rootDur == 0 {
		return 0
	}
	return 100 * float64(t.rootCovered) / float64(t.rootDur)
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// summarize computes each span's self time — its duration minus the part
// of it its children cover — and aggregates by name.
func summarize(spans []span) traceSummary {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	t := traceSummary{layers: make(map[string]*layerTotals)}
	for i, s := range spans {
		dur := s.End - s.Start
		cov := covered(s.Start, s.End, kids[int32(i)])
		l := t.layers[s.Name]
		if l == nil {
			l = new(layerTotals)
			t.layers[s.Name] = l
		}
		l.count++
		l.dur += dur
		l.self += dur - cov
		if s.Parent < 0 {
			t.roots++
			t.rootDur += dur
			t.rootCovered += cov
		}
	}
	return t
}

// writeSpans writes the spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
