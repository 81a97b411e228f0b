package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// percentile: fewer, and the percentile is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and the number
// of samples beyond it. It refuses (returns an error) when fewer than
// minBeyond samples lie beyond the selected rank.
func percentile(xs []float64, p float64) (value float64, beyond int, err error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	k := int(math.Ceil(p/100*float64(n))) - 1
	k = max(0, min(k, n-1))
	beyond = n - 1 - k
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	return sorted[k], beyond, nil
}

// windowSamples is the size of a latency window: the fewest samples that
// leave minBeyond beyond a nearest-rank p99.
const windowSamples = 100 * minBeyond

// latWindows splits a run's latency samples into consecutive windows of at
// least windowSamples, in the order the operations completed, and takes
// the percentiles within each window. The run reports the median over
// windows: on a shared machine whose speed swings over seconds, one slow
// stretch moves a pooled p99 a long way but moves the median window little.
type latWindows struct {
	cur        []float64
	p50s, p99s []float64
	samples    int
}

// add appends one operation batch (a sweep's points, a server round) and
// closes the window once it holds enough samples.
func (w *latWindows) add(batch []float64) {
	w.cur = append(w.cur, batch...)
	if len(w.cur) < windowSamples {
		return
	}
	p50, _, err50 := percentile(w.cur, 50)
	p99, _, err99 := percentile(w.cur, 99)
	if err50 == nil && err99 == nil {
		w.p50s = append(w.p50s, p50)
		w.p99s = append(w.p99s, p99)
		w.samples += len(w.cur)
	}
	w.cur = w.cur[:0]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// memSample is a snapshot of the runtime/metrics the benchmark reports.
type memSample struct {
	allocBytes uint64 // cumulative heap allocation
	gcCycles   uint64 // completed GC cycles
	liveBytes  uint64 // heap marked live by the last GC
}

var memNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes"}

func readMem() memSample {
	s := make([]metrics.Sample, len(memNames))
	for i, n := range memNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return memSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), liveBytes: s[2].Value.Uint64()}
}

// liveHeap forces two collections (the second empties the sync.Pool victim
// caches) and returns the bytes the heap still holds live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMem().liveBytes
}

// gcPauseNs is the cumulative stop-the-world GC pause time.
func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}
