package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Span names. A root span is one client operation ("op.<class>"); its
// children are the benchmark's calls into each module's public functions,
// named module.Type.Method. Spans are recorded by the benchmark around
// those calls, never inside the engine.
const (
	spOpPacket   = "op.packet"
	spOpFlush    = "op.flush"
	spOpRead     = "op.read"
	spOpRMW      = "op.rmw"
	spOpInsert   = "op.insert"
	spOpExpire   = "op.expire"
	spOpForward  = "op.forward"
	spOpBackward = "op.backward"
	spOpDelete   = "op.delete"

	spHandle  = "ipcap.Daemon.HandlePacket"
	spFlush   = "ipcap.Daemon.Flush"
	spAccount = "ipcap.FlowTable.Account"
	spFlows   = "ipcap.FlowTable.Flows"
	spDrop    = "ipcap.FlowTable.Drop"

	spDurQuery  = "core.DurableRelation.Query"
	spDurUpdate = "core.DurableRelation.Update"
	spDurInsert = "core.DurableRelation.Insert"
	spDurRemove = "core.DurableRelation.Remove"
	spShrQuery  = "core.ShardedRelation.QueryFunc"
	spShrRemove = "core.ShardedRelation.Remove"

	spFolQuery = "repl.Follower.Query"
	spFolWait  = "repl.Follower.WaitFor"
	spPubHead  = "repl.Publisher.Head"
)

// spanNames lists every span any workload records; each has a
// self.<name>_us per-layer metric.
var spanNames = []string{
	spOpPacket, spOpFlush, spOpRead, spOpRMW, spOpInsert, spOpExpire, spOpForward, spOpBackward, spOpDelete,
	spHandle, spFlush, spAccount, spFlows, spDrop,
	spDurQuery, spDurUpdate, spDurInsert, spDurRemove, spShrQuery, spShrRemove,
	spFolQuery, spFolWait, spPubHead,
}

// Raw spans are kept for every rawEvery-th client operation, up to
// rawMax spans; per-name aggregates cover every span.
const (
	rawEvery = 64
	rawMax   = 200_000
)

type spanStat struct {
	durs samples
	self time.Duration
}

// rawSpan is one exported span. Times are nanoseconds since the tracer
// started.
type rawSpan struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type openSpan struct {
	id, parent int64
	name       string
	start      time.Time
	child      time.Duration // time covered by finished child spans
}

// spanTracer records the spans of the single client goroutine in
// memory. A nil *spanTracer records nothing, so untraced runs share the
// workload code at the cost of a nil check per call.
type spanTracer struct {
	epoch  time.Time
	stats  map[string]*spanStat
	stack  []openSpan
	op     int64
	nextID int64
	raw    []rawSpan
	plan   planTracer
}

func newSpanTracer() *spanTracer {
	return &spanTracer{epoch: time.Now(), stats: map[string]*spanStat{}}
}

// reset discards everything recorded so far (the set-up's spans and
// plan events) and restarts the clock the raw span times count from.
func (t *spanTracer) reset() {
	t.epoch, t.stats, t.stack, t.raw = time.Now(), map[string]*spanStat{}, nil, nil
	t.op, t.nextID = 0, 0
	t.plan.mu.Lock()
	t.plan.execs, t.plan.rows, t.plan.dur = 0, 0, 0
	t.plan.mu.Unlock()
}

// beginOp opens the root span of a new client operation.
func (t *spanTracer) beginOp(name string) {
	if t == nil {
		return
	}
	t.op++
	t.begin(name)
}

// begin opens a child of the innermost open span.
func (t *spanTracer) begin(name string) {
	if t == nil {
		return
	}
	t.nextID++
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, openSpan{id: t.nextID, parent: parent, name: name, start: time.Now()})
}

// end closes the innermost open span. Self time is its duration minus
// the time its (sequential) children covered.
func (t *spanTracer) end() {
	if t == nil {
		return
	}
	now := time.Now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	d := now.Sub(s.start)
	st := t.stats[s.name]
	if st == nil {
		st = &spanStat{}
		t.stats[s.name] = st
	}
	st.durs = append(st.durs, d)
	st.self += d - s.child
	if n > 0 {
		t.stack[n-1].child += d
	}
	if t.op%rawEvery == 0 && len(t.raw) < rawMax {
		t.raw = append(t.raw, rawSpan{
			ID: s.id, Parent: s.parent, Op: t.op, Name: s.name,
			Start: s.start.Sub(t.epoch).Nanoseconds(), End: now.Sub(t.epoch).Nanoseconds(),
		})
	}
}

// durs returns the pooled durations of the named spans.
func (t *spanTracer) durs(names ...string) samples {
	var out samples
	for _, n := range names {
		if st := t.stats[n]; st != nil {
			out = append(out, st.durs...)
		}
	}
	return out
}

// selfMeanUS is the mean self time of one span name in microseconds.
func (t *spanTracer) selfMeanUS(name string) float64 {
	st := t.stats[name]
	if st == nil || len(st.durs) == 0 {
		return 0
	}
	return float64(st.self) / float64(len(st.durs)) / float64(time.Microsecond)
}

// planTracer is the obs.Tracer the traced runs attach: it aggregates the
// engine's plan-execution events. Fan-out workers call it concurrently.
type planTracer struct {
	mu    sync.Mutex
	execs int64
	rows  int64
	dur   time.Duration
}

func (p *planTracer) Event(e obs.Event) {
	if e.Kind != obs.EvPlanExec {
		return
	}
	p.mu.Lock()
	p.execs++
	p.rows += int64(e.Rows)
	p.dur += e.Dur
	p.mu.Unlock()
}

// spanSummary is the per-name aggregate line of a span export.
type spanSummary struct {
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	MeanUS  float64 `json:"mean_us"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
}

// layerOf maps a span name to its module: client operations belong to
// the benchmark's client, everything else to its first name component.
func layerOf(name string) string {
	mod, _, _ := strings.Cut(name, ".")
	if mod == "op" {
		return "client"
	}
	return mod
}

// export writes the run as JSON lines: one "run" header, one "span"
// aggregate per span name (every span counted), then the sampled "raw"
// spans. spanreport reads these files.
func (t *spanTracer) export(path, workload string, seed int64, host hostInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{
		"kind": "run", "workload": workload, "seed": seed, "ops": t.op,
		"raw_every": rawEvery, "host": host,
	}); err != nil {
		return err
	}
	for _, name := range sortedKeys(t.stats) {
		st := t.stats[name]
		var total time.Duration
		for _, d := range st.durs {
			total += d
		}
		if err := enc.Encode(spanSummary{
			Kind: "span", Name: name, Layer: layerOf(name), Count: len(st.durs),
			TotalUS: float64(total) / 1e3, SelfUS: float64(st.self) / 1e3,
			MeanUS: st.durs.meanUS(), P50US: st.durs.quantileUS(0.5), P99US: st.durs.quantileUS(0.99),
		}); err != nil {
			return err
		}
	}
	for _, r := range t.raw {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			rawSpan
		}{"raw", r}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
