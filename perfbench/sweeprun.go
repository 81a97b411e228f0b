package main

import (
	"runtime"
	"time"
)

// A sweep run sets up at least minSetups times and until setupSeconds are
// used; setup_s is the median. The machine's speed swings over seconds, so
// a median over a couple of seconds of set-ups is steadier than one over a
// fixed handful of 0.1 s sweeps.
const (
	minSetups    = 5
	setupSeconds = 2.0
)

// sweepMeasure is the untraced run of a sweep workload. Set-up is warm-up
// driver sweeps (the first in a cold process) that grow the heap and fill
// the scratch pools; the timed loop then runs whole sweeps back to back,
// each with a fresh simulator, until the measured time is used.
func sweepMeasure(w *sweepSpec, seconds float64, r *run) error {
	var setup []float64
	for start := time.Now(); len(setup) < minSetups || elapsedSince(start) < setupSeconds; {
		res, err := w.runDriver(func(time.Duration) {})
		if err != nil {
			return err
		}
		r.op(w.check(res))
		setup = append(setup, res.wall.Seconds())
	}
	var (
		walls, lat []float64
		lw         latWindows
		alloc      uint64
		last       sweepResult
		measured   float64
		relowered  int
	)
	for measured < seconds || len(lw.p99s) < minWindows {
		lat = lat[:0]
		res, err := w.runDriver(func(d time.Duration) { lat = append(lat, float64(d)/1e6) })
		if err != nil {
			return err
		}
		lw.add(lat)
		r.op(w.check(res))
		if res.lowerings > w.lowerings {
			relowered++
		}
		walls = append(walls, res.wall.Seconds())
		alloc += res.alloc
		measured += res.wall.Seconds()
		last = res
	}
	live := liveHeap()
	runtime.KeepAlive(last.sim)

	sweep := median(walls)
	r.set("setup_s", median(setup), "s")
	r.set("points_per_s", float64(w.points)/sweep, "1/s")
	r.set("req_per_s", 1/sweep, "1/s")
	setLatency(r, &lw, "time from a sweep's start until a point is streamed")
	r.set("alloc_mb_per_op", float64(alloc)/float64(len(walls))/1e6, "MB")
	r.set("live_heap_mb", float64(live)/1e6, "MB")
	r.note("%d sweeps of %d points in %.2fs measured; median sweep %.2f ms; batch width %.2f",
		len(walls), w.points, measured, sweep*1e3, last.width)
	r.note("%d of %d sweeps lowered more graphs than the space's %d distinct shapes", relowered, len(walls), w.lowerings)
	return nil
}

// minWindows is the fewest latency windows a run measures.
const minWindows = 3

// setLatency reports the median over windows of the per-window p50 and p99
// (milliseconds), and prints the sample counts.
func setLatency(r *run, lw *latWindows, what string) {
	r.set("latency_ms_p50", median(lw.p50s), "ms")
	r.set("latency_ms_p99", median(lw.p99s), "ms")
	r.note("latency = %s: %d windows of at least %d samples (%d samples); within each, p99 has at least %d samples beyond it",
		what, len(lw.p99s), windowSamples, lw.samples, minBeyond)
}

// sweepTrace is the traced run of a sweep workload. Each round runs the
// real driver, the serial replica with spans off, and the replica with
// spans on; both replicas are held to the driver's points bit for bit.
func sweepTrace(w *sweepSpec, seconds float64, r *run) error {
	// One untimed warm-up sweep, checked like every other.
	res, err := w.runDriver(func(time.Duration) {})
	if err != nil {
		return err
	}
	r.op(w.check(res))
	rec := newRecorder()
	var (
		driver, off, on []float64
		cnt             counters
		gcs, pause      uint64
		lowerings       uint64
		hits, misses    int
	)
	start := time.Now()
	for elapsedSince(start) < seconds || len(on) < 3 {
		g0, p0 := readMem().gcCycles, gcPauseNs()
		d, err := w.runDriver(func(time.Duration) {})
		if err != nil {
			return err
		}
		gcs += readMem().gcCycles - g0
		pause += gcPauseNs() - p0
		lowerings += d.lowerings
		r.op(w.check(d))
		driver = append(driver, d.wall.Seconds())

		t := time.Now()
		rep, pts, err := w.runReplica(nil)
		off = append(off, time.Since(t).Seconds())
		if err == nil {
			err = w.checkReplica(rep, pts, d)
		}
		r.op(err)

		t = time.Now()
		rep, pts, err = w.runReplica(rec)
		on = append(on, time.Since(t).Seconds())
		if err == nil {
			err = w.checkReplica(rep, pts, d)
		}
		r.op(err)
		if rep != nil {
			cnt.add(rep.cnt)
			h, m := rep.profilerStats()
			hits, misses = hits+h, misses+m
		}
	}
	sum := summarize(rec.spans)
	ops := float64(len(on))
	setLayers(r, sum, cnt, ops, hits, misses)
	// The driver's own lowering count, which can exceed the replica's (see
	// sweepSpec.check).
	r.set("core.lowerings", float64(lowerings)/float64(len(driver)), "count")
	r.set("driver.parallel_x", median(off)/median(driver), "x")
	r.set("runtime.gc_count", float64(gcs)/float64(len(driver)), "count")
	r.set("runtime.gc_pause_ms", float64(pause)/float64(len(driver))/1e6, "ms")
	r.set("trace.overhead_pct", 100*(median(on)-median(off))/median(off), "%")
	zeroServerLayers(r)
	r.note("%d rounds: driver %.1f ms, replica off %.1f ms, replica on %.1f ms (medians)",
		len(on), median(driver)*1e3, median(off)*1e3, median(on)*1e3)
	printLayers(r, sum, ops)
	r.spans = rec.spans
	return nil
}
