package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/systems/ipcap"
	"repro/internal/workload"
)

// ipcapSize scales the ipcap-plain workload. The trace is one flush
// period long and is replayed period after period by one daemon, so
// every period does the same work from the same state, an emptied
// table, and ends with a flush of the same table.
type ipcapSize struct {
	packets, locals, foreign int
	warm                     int // packets accounted (then flushed away) during set-up
	setups                   int // set-up repetitions; setup_s is their median
}

var (
	ipcapFull  = ipcapSize{packets: 200_000, locals: 64, foreign: 65_536, warm: 2000, setups: 25}
	ipcapSmoke = ipcapSize{packets: 3000, locals: 8, foreign: 512, warm: 100, setups: 2}
)

// tracedTable is the FlowTable decorator of traced runs: it records a
// span around each call the daemon makes into the synthesized table.
type tracedTable struct {
	inner ipcap.FlowTable
	tr    *spanTracer
}

func (t tracedTable) Account(key ipcap.FlowKey, n int64) error {
	t.tr.begin(spAccount)
	defer t.tr.end()
	return t.inner.Account(key, n)
}

func (t tracedTable) Flows(f func(ipcap.FlowKey, ipcap.FlowStats) bool) error {
	t.tr.begin(spFlows)
	defer t.tr.end()
	return t.inner.Flows(f)
}

func (t tracedTable) Drop(key ipcap.FlowKey) error {
	t.tr.begin(spDrop)
	defer t.tr.end()
	return t.inner.Drop(key)
}

func (t tracedTable) Len() int { return t.inner.Len() }

// traceTotals recounts a trace from the raw header bytes, independently
// of the daemon's parser: packets, bytes, and distinct local/foreign
// pairs (local hosts are the 10/8 side).
func traceTotals(trace []workload.Packet) (packets, byteCount int64, flows int) {
	pairs := map[uint64]struct{}{}
	for _, p := range trace {
		byteCount += int64(binary.BigEndian.Uint16(p[2:]))
		src, dst := binary.BigEndian.Uint32(p[12:]), binary.BigEndian.Uint32(p[16:])
		if dst>>24 == 10 {
			src, dst = dst, src
		}
		pairs[uint64(src)<<32|uint64(dst)] = struct{}{}
	}
	return int64(len(trace)), byteCount, len(pairs)
}

// parseFlushLog sums the packets= and bytes= fields of a flush log.
func parseFlushLog(log []byte) (flows int, packets, byteCount int64, err error) {
	for len(log) > 0 {
		line, rest, _ := bytes.Cut(log, []byte{'\n'})
		log = rest
		_, p, ok1 := bytes.Cut(line, []byte(" packets="))
		ps, bs, ok2 := bytes.Cut(p, []byte(" bytes="))
		if !ok1 || !ok2 {
			return 0, 0, 0, fmt.Errorf("unparsable log line %q", line)
		}
		np, err1 := strconv.ParseInt(string(ps), 10, 64)
		nb, err2 := strconv.ParseInt(string(bs), 10, 64)
		if err1 != nil || err2 != nil {
			return 0, 0, 0, fmt.Errorf("unparsable log line %q", line)
		}
		flows++
		packets += np
		byteCount += nb
	}
	return flows, packets, byteCount, nil
}

// runIpcap is the paper's Figure 13 case study on the bare core.Relation:
// every packet is a find-first point query followed by an in-place Update
// or an Insert, and every period ends with a full scan and per-flow
// removes (the flush).
func runIpcap(cfg config) (*outcome, error) {
	size := ipcapFull
	if cfg.smoke {
		size = ipcapSmoke
	}
	trace := workload.PacketTrace(size.packets, size.locals, size.foreign, cfg.seed)
	wantPackets, wantBytes, wantFlows := traceTotals(trace)
	o := &outcome{report: map[string]metric{}}

	var (
		rel    *core.Relation
		daemon *ipcap.Daemon
		log    bytes.Buffer
		base   uint64
		setups []float64
		tr     *spanTracer
		met    *obs.Metrics
	)
	if cfg.trace {
		tr, met = newSpanTracer(), &obs.Metrics{}
	}
	// Set-up: build the relation and daemon, then account a few packets
	// and flush them so plan caching and compilation finish before timing.
	for i := 0; i < size.setups; i++ {
		rel, daemon = nil, nil
		base = liveHeap()
		start := time.Now()
		var err error
		rel, err = core.New(ipcap.FlowSpec(), ipcap.DefaultFlowDecomp())
		if err != nil {
			return nil, err
		}
		var table ipcap.FlowTable = ipcap.WrapRelation(rel)
		if tr != nil {
			rel.SetMetrics(met)
			rel.SetTracer(&tr.plan)
			table = tracedTable{inner: table, tr: tr}
		}
		daemon = ipcap.NewDaemon(table, &log, 0)
		for _, p := range trace[:size.warm] {
			if err := daemon.HandlePacket(p); err != nil {
				return nil, err
			}
		}
		if err := daemon.Flush(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		log.Reset()
	}
	// The fullest point, measured in one untimed period: every flow of
	// the trace is live. The period also leaves the table's maps at the
	// size every timed period starts from.
	for _, p := range trace {
		if err := daemon.HandlePacket(p); err != nil {
			return nil, err
		}
	}
	heapFull, tuples := liveHeap(), rel.Len()
	nodes := rel.Instance().NodeCount()
	if err := daemon.Flush(); err != nil {
		return nil, err
	}
	log.Reset()
	if tr != nil {
		tr.reset()
	}

	// The timed phase replays the trace period after period, one window
	// per period: its packets and the flush.
	var clock stopwatch
	c := chunker{clock: &clock}
	var (
		mem     memDelta
		before  obs.Snapshot
		periods int64
	)
	if met != nil {
		before = met.Snapshot()
	}
	for periods == 0 || clock.elapsed().Seconds() < cfg.seconds {
		// Each period starts from a collected heap, so the collector runs
		// at the same places in every period.
		runtime.GC()
		mem.begin()
		clock.start()
		c.begin()
		for _, p := range trace {
			o.attempted++
			tr.beginOp(spOpPacket)
			tr.begin(spHandle)
			t0 := time.Now()
			err := daemon.HandlePacket(p)
			c.add(latWrite, time.Since(t0))
			tr.end()
			tr.end()
			if err != nil {
				o.failed++
			}
		}
		o.attempted++
		tr.beginOp(spOpFlush)
		tr.begin(spFlush)
		t0 := time.Now()
		err := daemon.Flush()
		c.add(latFlush, time.Since(t0))
		c.close()
		tr.end()
		tr.end()
		clock.stop()
		mem.end()
		periods++
		if err != nil {
			return nil, fmt.Errorf("flush: %w", err)
		}
		flows, gotPackets, gotBytes, err := parseFlushLog(log.Bytes())
		if err != nil {
			return nil, err
		}
		if flows != wantFlows || gotPackets != wantPackets || gotBytes != wantBytes {
			o.mismatch("period %d flushed %d flows, %d packets, %d bytes; the trace has %d, %d, %d",
				periods, flows, gotPackets, gotBytes, wantFlows, wantPackets, wantBytes)
		}
		if rel.Len() != 0 {
			o.mismatch("period %d left %d flows after the flush", periods, rel.Len())
		}
		log.Reset()
	}
	if _, ignored := daemon.Stats(); ignored != 0 {
		o.mismatch("daemon ignored %d well-formed packets", ignored)
	}

	// Every packet is one acknowledged Update or Insert after its
	// find-first read, so the write and op latencies are the same samples.
	rate := o.setFigures(c.ws)
	o.set("op_p50_us", o.report["write_p50_us"].Value, "us")
	o.set("op_p99_us", o.report["write_p99_us"].Value, "us")
	o.set("setup_s", median(setups), "s")
	o.set("heap_bytes_per_tuple", heapPerTuple(base, heapFull, tuples), "B")
	o.set("peak_tuples", float64(tuples), "count")

	if tr != nil {
		ls := newLayerSet()
		ls.fromSpans(tr)
		ls.fromCounters(met.Snapshot().Sub(before), o.attempted, o.attempted)
		ls.fromRuntime(mem, o.attempted, rate)
		ls.set("instance.nodes_per_tuple", ratio(float64(nodes), float64(tuples)))
		o.layers, o.spans = ls, tr
	}
	return o, nil
}
