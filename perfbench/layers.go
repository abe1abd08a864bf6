package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// perLayer is BENCHMARK.json's per_layer list before the per-span self
// times: each metric is named by its module. A traced run reports every
// one; a layer the workload bypasses reads 0, which is the bypass
// prediction NOTES.md records.
var perLayer = [][2]string{
	{"ipcap.handle_self_us", "us"},
	{"ipcap.account_us", "us"},
	{"ipcap.account_p99_us", "us"},
	{"ipcap.flush_s", "s"},
	{"plan.exec_us", "us"},
	{"plan.rows_per_exec", "rows"},
	{"plan.exec.vectorized_share", "ratio"},
	{"plan.exec.compiled_share", "ratio"},
	{"plan.exec.point_share", "ratio"},
	{"plan.exec.interpreted_share", "ratio"},
	{"plan.cache_hit_ratio", "ratio"},
	{"plan.vec_fallback_ratio", "ratio"},
	{"instance.validates_per_write", "count"},
	{"instance.applies_per_write", "count"},
	{"instance.rollbacks", "count"},
	{"instance.poison_events", "count"},
	{"instance.nodes_per_tuple", "count"},
	{"core.query_us", "us"},
	{"core.query_p99_us", "us"},
	{"core.insert_us", "us"},
	{"core.update_us", "us"},
	{"core.remove_us", "us"},
	{"core.cow.node_clones_per_write", "count"},
	{"core.cow.map_clones_per_write", "count"},
	{"core.snap.publishes_per_write", "count"},
	{"core.snap.drops", "count"},
	{"core.sharded.routed_per_op", "count"},
	{"core.sharded.fanouts_per_query", "count"},
	{"core.sharded.fanout_latency_mean_us", "us"},
	{"wal.appends_per_write", "count"},
	{"wal.fsyncs_per_write", "count"},
	{"wal.bytes_per_write", "B"},
	{"wal.log_bytes", "B"},
	{"durable.replays", "count"},
	{"durable.replays_per_s", "1/s"},
	{"durable.discards", "count"},
	{"durable.setup_reopen_s", "s"},
	{"repl.records_per_write", "count"},
	{"repl.wire_bytes_per_record", "B"},
	{"repl.max_lag", "records"},
	{"repl.follower_query_us", "us"},
	{"repl.snapshots", "count"},
	{"repl.bootstrap_tuples_per_s", "1/s"},
	{"repl.reconnects", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"trace.ops_per_s", "1/s"},
}

// selfMetric names the per-layer metric holding a span's mean self time.
func selfMetric(span string) string { return "self." + span + "_us" }

// layerSet is a traced run's per-layer metrics, pre-filled with zeros.
type layerSet map[string]metric

func newLayerSet() layerSet {
	ls := layerSet{}
	for _, d := range perLayer {
		ls[d[0]] = metric{0, d[1]}
	}
	for _, s := range spanNames {
		ls[selfMetric(s)] = metric{0, "us"}
	}
	return ls
}

// set records one metric; naming one the list lacks is a bug.
func (ls layerSet) set(name string, v float64) {
	m, ok := ls[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: per-layer metric %q is not in perLayer", name))
	}
	m.Value = v
	ls[name] = m
}

// fromSpans fills the span-derived metrics: every self time, and the
// call latencies of the ipcap, core and repl entry points.
func (ls layerSet) fromSpans(t *spanTracer) {
	for _, s := range spanNames {
		ls.set(selfMetric(s), t.selfMeanUS(s))
	}
	ls.set("ipcap.handle_self_us", t.selfMeanUS(spHandle))
	acc := t.durs(spAccount)
	ls.set("ipcap.account_us", acc.meanUS())
	ls.set("ipcap.account_p99_us", acc.quantileUS(0.99))
	ls.set("ipcap.flush_s", t.durs(spFlush).meanUS()/1e6)
	q := t.durs(spDurQuery, spShrQuery)
	ls.set("core.query_us", q.meanUS())
	ls.set("core.query_p99_us", q.quantileUS(0.99))
	ls.set("core.insert_us", t.durs(spDurInsert).meanUS())
	ls.set("core.update_us", t.durs(spDurUpdate).meanUS())
	ls.set("core.remove_us", t.durs(spDurRemove, spShrRemove).meanUS())
	ls.set("repl.follower_query_us", t.durs(spFolQuery).meanUS())

	p := &t.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	ls.set("plan.exec_us", ratio(float64(p.dur)/float64(time.Microsecond), float64(p.execs)))
	ls.set("plan.rows_per_exec", ratio(float64(p.rows), float64(p.execs)))
}

// fromCounters fills the metrics derived from an engine's obs counters
// over the timed phase. Per-write ratios divide by the engine mutation
// calls the counters saw; ops and queries are the client operations and
// the client queries among them.
func (ls layerSet) fromCounters(s obs.Snapshot, ops, queries int64) {
	execs := float64(s.ExecVectorized + s.ExecCompiled + s.ExecPoint + s.ExecInterpreted)
	ls.set("plan.exec.vectorized_share", ratio(float64(s.ExecVectorized), execs))
	ls.set("plan.exec.compiled_share", ratio(float64(s.ExecCompiled), execs))
	ls.set("plan.exec.point_share", ratio(float64(s.ExecPoint), execs))
	ls.set("plan.exec.interpreted_share", ratio(float64(s.ExecInterpreted), execs))
	ls.set("plan.cache_hit_ratio", ratio(float64(s.PlanCacheHits), float64(s.PlanCacheHits+s.PlanCacheMisses)))
	ls.set("plan.vec_fallback_ratio", ratio(float64(s.VecFallbacks), float64(s.ExecVectorized+s.VecFallbacks)))

	writes := float64(s.Inserts + s.Updates + s.Removes + s.Upserts)
	ls.set("instance.validates_per_write", ratio(float64(s.MutValidates), writes))
	ls.set("instance.applies_per_write", ratio(float64(s.MutApplies), writes))
	ls.set("instance.rollbacks", float64(s.MutRollbacks))
	ls.set("instance.poison_events", float64(s.PoisonEvents))

	ls.set("core.cow.node_clones_per_write", ratio(float64(s.CowNodeClones), writes))
	ls.set("core.cow.map_clones_per_write", ratio(float64(s.CowMapClones), writes))
	ls.set("core.snap.publishes_per_write", ratio(float64(s.SnapPublishes), writes))
	ls.set("core.snap.drops", float64(s.SnapDrops))
	ls.set("core.sharded.routed_per_op", ratio(float64(s.RoutedOps), float64(ops)))
	ls.set("core.sharded.fanouts_per_query", ratio(float64(s.FanOuts), float64(queries)))
	ls.set("core.sharded.fanout_latency_mean_us", float64(s.FanOutLatency.Mean())/float64(time.Microsecond))

	ls.set("wal.appends_per_write", ratio(float64(s.WalAppends), writes))
	ls.set("wal.fsyncs_per_write", ratio(float64(s.WalFsyncs), writes))
	ls.set("wal.bytes_per_write", ratio(float64(s.WalBytes), writes))
}

// fromRuntime fills the runtime layer from MemStats deltas over the
// timed phase, and the traced run's own throughput, measured as the
// untraced run measures ops_per_s.
func (ls layerSet) fromRuntime(m memDelta, ops int64, rate float64) {
	ls.set("runtime.alloc_bytes_per_op", ratio(float64(m.allocBytes), float64(ops)))
	ls.set("runtime.gc_cycles_per_kop", ratio(float64(m.gcCycles)*1000, float64(ops)))
	ls.set("trace.ops_per_s", rate)
}
