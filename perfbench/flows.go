package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/systems/ipcap"
	"repro/internal/wal"
)

// flowsSize scales the flows-replicated workload.
type flowsSize struct {
	flows  int // live flows loaded in set-up, kept steady by expiry
	locals int
	batch  int // tuples per InsertBatch of the bulk load
	setups int // load-and-reopen repetitions; setup_s is their median
	window int // client operations per timing window, in whole blocks
}

var (
	flowsFull  = flowsSize{flows: 10_000, locals: 64, batch: 1000, setups: 7, window: 50 * blockOps}
	flowsSmoke = flowsSize{flows: 500, locals: 8, batch: 100, setups: 2, window: blockOps}
)

// Operation classes of the timed mix.
const (
	clsRead   = iota // follower point read
	clsRMW           // primary read, then Update of the same flow
	clsInsert        // new flow
	clsExpire        // expiry of the oldest flow
	clsCount
)

// The timed mix, 50/30/10/10 percent, is dealt in blocks of blockOps
// operations holding exactly mixCounts of each class in random order.
// Every window of whole blocks then does the same mix of work, so the
// windows of the closed loop are repetitions of one another.
const blockOps = 20

var mixCounts = [clsCount]int{10, 6, 2, 2}

// waitLimit bounds every wait for the follower; hitting it is a failure.
const waitLimit = 30 * time.Second

var statCols = []string{"packets", "bytes"}

type flowKey struct{ local, foreign int64 }

type flowStats struct{ packets, bytes int64 }

func (k flowKey) pattern() relation.Tuple {
	return relation.NewTuple(relation.BindInt("local", k.local), relation.BindInt("foreign", k.foreign))
}

func (s flowStats) tuple() relation.Tuple {
	return relation.NewTuple(relation.BindInt("packets", s.packets), relation.BindInt("bytes", s.bytes))
}

// flowModel is the oracle: the live flows in insertion order with their
// counters, and the key generator. Hot keys are Zipf-skewed towards the
// newest flows; expiry removes the oldest.
type flowModel struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	locals int
	order  []flowKey // order[head:] are live, oldest first
	head   int
	stats  map[flowKey]flowStats
	next   int64 // foreign address of the next new flow
}

func newFlowModel(seed int64, locals, flows int) *flowModel {
	rng := rand.New(rand.NewSource(seed))
	return &flowModel{
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.1, 1, uint64(flows-1)),
		locals: locals,
		stats:  make(map[flowKey]flowStats, flows),
	}
}

// newFlow makes a flow with a fresh key and adds it to the model.
func (m *flowModel) newFlow() (flowKey, flowStats) {
	k := flowKey{local: 10<<24 | int64(1+m.rng.Intn(m.locals)), foreign: 203<<24 | m.next}
	m.next++
	s := flowStats{packets: 1 + m.rng.Int63n(100), bytes: 40 + m.rng.Int63n(100_000)}
	m.order = append(m.order, k)
	m.stats[k] = s
	return k, s
}

// block returns the classes of the next blockOps client operations.
func (m *flowModel) block() []int {
	b := make([]int, 0, blockOps)
	for class, n := range mixCounts {
		for range n {
			b = append(b, class)
		}
	}
	m.rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

func (m *flowModel) live() int { return len(m.order) - m.head }

// hot picks a live flow, Zipf-skewed towards the newest.
func (m *flowModel) hot() flowKey {
	r := int(m.zipf.Uint64()) % m.live()
	return m.order[len(m.order)-1-r]
}

// expire drops the oldest flow from the model and returns its key.
func (m *flowModel) expire() flowKey {
	k := m.order[m.head]
	delete(m.stats, k)
	m.head++
	if m.head > len(m.order)/2 {
		m.order = append(m.order[:0], m.order[m.head:]...)
		m.head = 0
	}
	return k
}

// keys returns the model's flows as sorted tuple keys.
func (m *flowModel) keys() []string {
	out := make([]string, 0, len(m.stats))
	for k, s := range m.stats {
		out = append(out, k.pattern().Merge(s.tuple()).Key())
	}
	sort.Strings(out)
	return out
}

// tupleKeys renders a relation's contents as sorted tuple keys.
func tupleKeys(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// loadFlows bulk-loads the flows under SyncOff, closes, and reopens the
// directory under SyncAlways: every acknowledged write of the timed phase
// is fsynced, and the load itself pays no per-insert fsync.
func loadFlows(dir string, size flowsSize, initial []relation.Tuple, met *obs.Metrics) (d *core.DurableRelation, reopen time.Duration, err error) {
	spec, dec := ipcap.FlowSpec(), ipcap.DefaultFlowDecomp()
	d, err = durable.Open(dir, spec, dec, durable.Options{Create: true, Policy: wal.SyncOff, CheckFDs: true})
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < len(initial); i += size.batch {
		if err := d.InsertBatch(initial[i:min(i+size.batch, len(initial))]); err != nil {
			d.Close()
			return nil, 0, err
		}
	}
	if err := d.Close(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	d, err = durable.Open(dir, spec, dec, durable.Options{Policy: wal.SyncAlways, CheckFDs: true, Metrics: met})
	return d, time.Since(start), err
}

// runFlows drives the flows relation through every storage tier: the
// sync MVCC cell under a write-ahead log with fsync per acknowledged
// write, a publisher shipping each commit, and an in-process follower
// serving the reads. After every write the client waits until the
// follower has applied it. The run ends with a full-log recovery.
func runFlows(cfg config) (*outcome, error) {
	size := flowsFull
	if cfg.smoke {
		size = flowsSmoke
	}
	model := newFlowModel(cfg.seed, size.locals, size.flows)
	initial := make([]relation.Tuple, size.flows)
	for i := range initial {
		k, s := model.newFlow()
		initial[i] = k.pattern().Merge(s.tuple())
	}
	o := &outcome{report: map[string]metric{}}

	var (
		tr                  *spanTracer
		met, pubMet, folMet *obs.Metrics
		d                   *core.DurableRelation
		dir                 string
		base                uint64
		setups, reopens     []float64
	)
	if cfg.trace {
		tr, met, pubMet, folMet = newSpanTracer(), &obs.Metrics{}, &obs.Metrics{}, &obs.Metrics{}
	}
	for i := 0; i < size.setups; i++ {
		if d != nil {
			if err := d.Close(); err != nil {
				return nil, err
			}
			d = nil
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.workdir, fmt.Sprintf("flows-%d", i))
		base = liveHeap()
		start := time.Now()
		var reopen time.Duration
		var err error
		if d, reopen, err = loadFlows(dir, size, initial, met); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		reopens = append(reopens, reopen.Seconds())
	}
	defer os.RemoveAll(dir)
	closeD := func() {
		if d != nil {
			d.Close()
		}
	}
	defer closeD()

	spec, dec := ipcap.FlowSpec(), ipcap.DefaultFlowDecomp()
	pub, err := repl.NewPublisher(d, repl.PublisherOptions{Metrics: pubMet})
	if err != nil {
		return nil, err
	}
	defer pub.Close()
	bootStart := time.Now()
	fol, err := repl.NewFollower(spec, repl.InProcDialer(pub), repl.FollowerOptions{
		Decomp: dec, Metrics: folMet, Backoff: time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer fol.Close()
	if err := fol.WaitFor(pub.Head(), waitLimit); err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	bootstrap := time.Since(bootStart).Seconds()
	bootTuples := fol.Len()
	if tr != nil {
		tr.reset()
	}

	var (
		clock             stopwatch
		c                 = chunker{ops: int64(size.window), clock: &clock}
		mix               []int
		mem               memDelta
		before, pubBefore obs.Snapshot
		maxLag            uint64
		nReads, nWrites   int64
	)
	// ack waits for the follower to apply everything acknowledged so far
	// and returns the visibility delay from the acknowledgement at at.
	ack := func(at time.Time) time.Duration {
		tr.begin(spPubHead)
		head := pub.Head()
		tr.end()
		if tr != nil {
			maxLag = max(maxLag, head-fol.Applied())
		}
		tr.begin(spFolWait)
		err := fol.WaitFor(head, waitLimit)
		tr.end()
		if err != nil {
			o.failed++
		}
		return time.Since(at)
	}
	if met != nil {
		before, pubBefore = met.Snapshot(), pubMet.Snapshot()
	}
	mem.begin()
	clock.start()
	c.begin()
	// The loop ends with a window once --seconds have passed.
	for c.cur.ops > 0 || len(c.ws) == 0 || clock.elapsed().Seconds() < cfg.seconds {
		if len(mix) == 0 {
			mix = model.block()
		}
		class := mix[0]
		mix = mix[1:]
		o.attempted++
		switch class {
		case clsRead:
			nReads++
			k := model.hot()
			tr.beginOp(spOpRead)
			tr.begin(spFolQuery)
			t0 := time.Now()
			res, err := fol.Query(k.pattern(), statCols)
			c.add(latRead, time.Since(t0))
			tr.end()
			tr.end()
			if err != nil {
				o.failed++
			} else if want := model.stats[k]; len(res) != 1 || !res[0].Equal(want.tuple()) {
				o.mismatch("follower read of %v returned %v, want %v", k, res, want.tuple())
			}
		case clsRMW:
			nReads++
			nWrites++
			k := model.hot()
			cur := model.stats[k]
			next := flowStats{cur.packets + 1, cur.bytes + 40 + model.rng.Int63n(1400)}
			tr.beginOp(spOpRMW)
			t0 := time.Now()
			tr.begin(spDurQuery)
			res, qerr := d.Query(k.pattern(), statCols)
			tr.end()
			tr.begin(spDurUpdate)
			n, err := d.Update(k.pattern(), next.tuple())
			tr.end()
			at := time.Now()
			c.sample(latWrite, at.Sub(t0))
			c.add(latVisible, ack(at))
			tr.end()
			switch {
			case qerr != nil || err != nil:
				o.failed++
			case len(res) != 1 || !res[0].Equal(cur.tuple()):
				o.mismatch("primary read of %v returned %v, want %v", k, res, cur.tuple())
			case n != 1:
				o.mismatch("update of %v changed %d tuples", k, n)
			}
			model.stats[k] = next
		case clsInsert:
			nWrites++
			k, s := model.newFlow()
			tr.beginOp(spOpInsert)
			t0 := time.Now()
			tr.begin(spDurInsert)
			err := d.Insert(k.pattern().Merge(s.tuple()))
			tr.end()
			at := time.Now()
			c.sample(latWrite, at.Sub(t0))
			c.add(latVisible, ack(at))
			tr.end()
			if err != nil {
				o.failed++
			}
		case clsExpire:
			nWrites++
			k := model.expire()
			tr.beginOp(spOpExpire)
			t0 := time.Now()
			tr.begin(spDurRemove)
			n, err := d.Remove(k.pattern())
			tr.end()
			at := time.Now()
			c.sample(latWrite, at.Sub(t0))
			c.add(latVisible, ack(at))
			tr.end()
			if err != nil {
				o.failed++
			} else if n != 1 {
				o.mismatch("expiring %v removed %d tuples", k, n)
			}
		}
	}
	clock.stop()
	mem.end()
	rate := o.setFigures(c.ws)
	// The latency samples grow with the operations timed; the heap figure
	// below leaves them out.
	c = chunker{}

	// Oracles: the follower equals the primary equals the model, and the
	// recovered directory equals the pre-close state.
	if err := fol.WaitFor(pub.Head(), waitLimit); err != nil {
		return nil, err
	}
	heapFull, tuples := liveHeap(), d.Len()
	// The set-up's tuples count in the base the heap growth is taken from.
	runtime.KeepAlive(initial)
	primaryAll, err := d.All()
	if err != nil {
		return nil, err
	}
	followerAll, err := fol.All()
	if err != nil {
		return nil, err
	}
	primary, want := tupleKeys(primaryAll), model.keys()
	if !sameKeys(primary, want) {
		o.mismatch("primary holds %d flows, the model %d, or their contents differ", len(primary), len(want))
	}
	if !sameKeys(tupleKeys(followerAll), primary) {
		o.mismatch("follower holds %d flows, the primary %d, or their contents differ", len(followerAll), len(primary))
	}
	var logBytes int64
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
		logBytes = fi.Size()
	}
	var after, pubAfter obs.Snapshot
	if met != nil {
		after, pubAfter = met.Snapshot(), pubMet.Snapshot()
	}
	if err := fol.Close(); err != nil {
		return nil, err
	}
	if err := pub.Close(); err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	d = nil

	var recMet *obs.Metrics
	if cfg.trace {
		recMet = &obs.Metrics{}
	}
	start := time.Now()
	rd, err := durable.Open(dir, spec, dec, durable.Options{Policy: wal.SyncAlways, CheckFDs: true, Metrics: recMet})
	recovery := time.Since(start).Seconds()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	recovered, err := rd.All()
	if cerr := rd.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	if !sameKeys(tupleKeys(recovered), primary) {
		o.mismatch("recovery restored %d flows, %d were acknowledged, or their contents differ", len(recovered), len(primary))
	}
	// The follower's structural check walks its whole instance in time
	// quadratic in its size (a minute at 100k flows), so it runs after
	// everything is timed; a closed follower still serves its last state.
	if err := fol.CheckInvariants(); err != nil {
		o.mismatch("follower invariants: %v", err)
	}

	o.set("setup_s", median(setups), "s")
	o.set("recovery_s", recovery, "s")
	o.set("bootstrap_s", bootstrap, "s")
	o.set("heap_bytes_per_tuple", heapPerTuple(base, heapFull, tuples), "B")
	o.set("peak_tuples", float64(tuples), "count")

	if tr != nil {
		ls := newLayerSet()
		ls.fromSpans(tr)
		ls.fromCounters(after.Sub(before), o.attempted, nReads)
		ls.fromRuntime(mem, o.attempted, rate)
		nodes, err := nodesPerTuple(primaryAll)
		if err != nil {
			return nil, err
		}
		ls.set("instance.nodes_per_tuple", nodes)
		ls.set("wal.log_bytes", float64(logBytes))
		rs := recMet.Snapshot()
		ls.set("durable.replays", float64(rs.RecoveryReplays))
		ls.set("durable.replays_per_s", float64(rs.RecoveryReplays)/recovery)
		ls.set("durable.discards", float64(rs.RecoveryDiscards))
		ls.set("durable.setup_reopen_s", median(reopens))
		ps := pubAfter.Sub(pubBefore)
		ls.set("repl.records_per_write", ratio(float64(ps.ReplRecords), float64(nWrites)))
		ls.set("repl.wire_bytes_per_record", ratio(float64(ps.ReplBytes), float64(ps.ReplRecords)))
		ls.set("repl.max_lag", float64(maxLag))
		fs := folMet.Snapshot()
		ls.set("repl.snapshots", float64(fs.ReplSnapshots))
		ls.set("repl.bootstrap_tuples_per_s", float64(bootTuples)/bootstrap)
		ls.set("repl.reconnects", float64(fs.ReplReconnects))
		o.layers, o.spans = ls, tr
	}
	return o, nil
}

// nodesPerTuple loads ts into a fresh relation over the flows
// decomposition and counts its instance nodes per tuple; the durable
// tier does not expose its cell's instance.
func nodesPerTuple(ts []relation.Tuple) (float64, error) {
	r, err := core.New(ipcap.FlowSpec(), ipcap.DefaultFlowDecomp())
	if err != nil {
		return 0, err
	}
	for _, t := range ts {
		if err := r.Insert(t); err != nil {
			return 0, err
		}
	}
	return ratio(float64(r.Instance().NodeCount()), float64(r.Len())), nil
}
