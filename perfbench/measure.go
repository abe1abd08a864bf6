package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// samples collects per-operation latencies of one operation class.
type samples []time.Duration

// quantileUS returns the nearest-rank q-quantile in microseconds, 0 when
// there are no samples. It sorts s in place.
func (s samples) quantileUS(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / float64(time.Microsecond)
}

// meanUS returns the mean in microseconds, 0 when empty.
func (s samples) meanUS() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return float64(sum) / float64(len(s)) / float64(time.Microsecond)
}

// Latency kinds a window records, and the report names they go under.
const (
	latRead    = iota // point and routed reads
	latFanout         // reads fanned out to every shard
	latWrite          // acknowledged mutations
	latVisible        // acknowledgement until the follower has applied it
	latFlush          // ipcap flushes
	latKinds
)

var latNames = [latKinds]string{"read", "fanout", "write", "visible", "flush"}

// window is one repetition of the work a timed phase repeats: the
// operations it completed, the time they took, and their latencies by
// kind.
type window struct {
	ops int64
	dur time.Duration
	lat [latKinds]samples
}

// windows are a timed phase cut into repetitions.
type windows []window

// medianOf is the median over the windows of f.
func (ws windows) medianOf(f func(window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// setFigures reports what a timed phase's windows give and returns
// ops_per_s. Each window repeats the same work, its share of garbage
// collection included, so a figure is the median over the windows of
// that window's figure: outside load that slows a minority of the
// windows does not move it. ops_per_s is the median window's operations
// per second, and <kind>_p50_us and _p90_us are the median window's
// percentiles for each latency kind recorded; the p99 pools every
// window, since one window holds few samples of a tail. whole_ops_per_s
// is the whole phase's operations over its time.
func (o *outcome) setFigures(ws windows) float64 {
	rate := ws.medianOf(func(w window) float64 { return float64(w.ops) / w.dur.Seconds() })
	o.set("ops_per_s", rate, "1/s")
	var all window
	for _, w := range ws {
		all.ops += w.ops
		all.dur += w.dur
		for k := range all.lat {
			all.lat[k] = append(all.lat[k], w.lat[k]...)
		}
	}
	o.set("whole_ops_per_s", float64(all.ops)/all.dur.Seconds(), "1/s")
	for k, name := range latNames {
		if len(all.lat[k]) == 0 {
			continue
		}
		o.set(name+"_p50_us", ws.medianOf(func(w window) float64 { return w.lat[k].quantileUS(0.5) }), "us")
		o.set(name+"_p90_us", ws.medianOf(func(w window) float64 { return w.lat[k].quantileUS(0.9) }), "us")
		o.set(name+"_p99_us", all.lat[k].quantileUS(0.99), "us")
	}
	return rate
}

// chunker cuts a timed phase into windows as the operations complete:
// one per repetition, closed by the workload, or one per ops operations
// when ops is set.
type chunker struct {
	ops   int64
	clock *stopwatch
	ws    windows
	cur   window
	start time.Duration
}

// begin starts a window at the current time.
func (c *chunker) begin() {
	c.cur, c.start = window{}, c.clock.elapsed()
}

// sample records a latency of the current operation.
func (c *chunker) sample(kind int, d time.Duration) {
	c.cur.lat[kind] = append(c.cur.lat[kind], d)
}

// add records one completed operation and its latency.
func (c *chunker) add(kind int, d time.Duration) {
	c.sample(kind, d)
	c.cur.ops++
	if c.cur.ops == c.ops {
		c.close()
	}
}

// close ends the current window, if it holds any operation, and begins
// the next.
func (c *chunker) close() {
	if c.cur.ops > 0 {
		c.cur.dur = c.clock.elapsed() - c.start
		c.ws = append(c.ws, c.cur)
	}
	c.begin()
}

// stopwatch accumulates the timed phase across pauses, so oracle work
// and forced garbage collections between operations stay off the clock.
type stopwatch struct {
	total   time.Duration
	started time.Time
	running bool
}

func (w *stopwatch) start() {
	w.started, w.running = time.Now(), true
}

func (w *stopwatch) stop() {
	if w.running {
		w.total += time.Since(w.started)
		w.running = false
	}
}

// elapsed is the time accumulated so far, including a running interval.
func (w *stopwatch) elapsed() time.Duration {
	if w.running {
		return w.total + time.Since(w.started)
	}
	return w.total
}

// median returns the median of xs (the mean of the middle pair for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeap forces a collection and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapPerTuple is the live-heap growth from base, divided by tuples.
func heapPerTuple(base, full uint64, tuples int) float64 {
	if full < base || tuples == 0 {
		return 0
	}
	return float64(full-base) / float64(tuples)
}

// memDelta brackets the timed phase with runtime.MemStats readings for
// the runtime layer's allocation and GC-cycle metrics, summed over the
// intervals between each begin and end.
type memDelta struct {
	before     runtime.MemStats
	allocBytes uint64
	gcCycles   uint32
}

func (m *memDelta) begin() { runtime.ReadMemStats(&m.before) }

// end adds the bytes allocated and GC cycles completed since begin.
func (m *memDelta) end() {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.allocBytes += after.TotalAlloc - m.before.TotalAlloc
	m.gcCycles += after.NumGC - m.before.NumGC
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
