package repl

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/dstruct"
	"repro/internal/durable"
	"repro/internal/fd"
	"repro/internal/relation"
	"repro/internal/wal"
)

// flowsSpec is the flows table the replication benchmarks drive: one
// byte count per (local, foreign) pair, behind two hash-table levels.
func flowsSpec() *core.Spec {
	return &core.Spec{
		Name: "flows",
		Columns: []core.ColDef{
			{Name: "local", Type: core.IntCol},
			{Name: "foreign", Type: core.IntCol},
			{Name: "bytes", Type: core.IntCol},
		},
		FDs: fd.NewSet(fd.FD{
			From: relation.NewCols("local", "foreign"),
			To:   relation.NewCols("bytes"),
		}),
	}
}

func flowsDecomp() *decomp.Decomp {
	return decomp.MustNew([]decomp.Binding{
		decomp.Let("w", []string{"local", "foreign"}, []string{"bytes"},
			decomp.U("bytes")),
		decomp.Let("y", []string{"local"}, []string{"foreign", "bytes"},
			decomp.M(dstruct.HTableKind, "w", "foreign")),
		decomp.Let("x", nil, []string{"local", "foreign", "bytes"},
			decomp.M(dstruct.HTableKind, "y", "local")),
	}, "x")
}

func flowKey(i int) relation.Tuple {
	return relation.NewTuple(relation.BindInt("local", int64(i%1024)), relation.BindInt("foreign", int64(i)))
}

func flowTuple(i int) relation.Tuple {
	return flowKey(i).Merge(relation.NewTuple(relation.BindInt("bytes", int64(i))))
}

// openFlows opens a durable sync-tier flows table holding n flows.
func openFlows(t *testing.T, n int) *core.DurableRelation {
	t.Helper()
	d, err := durable.Open(t.TempDir(), flowsSpec(), flowsDecomp(), durable.Options{Create: true, Policy: wal.SyncOff, CheckFDs: true})
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	ts := make([]relation.Tuple, n)
	for i := range ts {
		ts[i] = flowTuple(i)
	}
	if err := d.InsertBatch(ts); err != nil {
		t.Fatal(err)
	}
	return d
}

// commitCost is what one Update commit and one Remove commit cost the
// writer: allocations (testing.AllocsPerRun) and heap bytes per run.
type commitCost struct {
	updateAllocs, removeAllocs float64
	updateBytes, removeBytes   float64
}

func (c commitCost) sub(o commitCost) commitCost {
	return commitCost{
		c.updateAllocs - o.updateAllocs, c.removeAllocs - o.removeAllocs,
		c.updateBytes - o.updateBytes, c.removeBytes - o.removeBytes,
	}
}

// publisherCommitCost returns what attaching a publisher with the given
// Retain adds to the commits of an n-flow primary: the cost measured
// with the publisher attached and its retained window full (so every
// measured commit also compacts), minus the cost of the same commits
// with no publisher. The difference leaves out the engine's own
// copy-on-write work. Each Remove is paired with the Insert that
// restores the flow, so the table size holds.
func publisherCommitCost(t *testing.T, n, retain, runs int) commitCost {
	t.Helper()
	d := openFlows(t, n)
	i := 0
	update := func() {
		i++
		if _, err := d.Update(flowKey(i%n), relation.NewTuple(relation.BindInt("bytes", int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	removeInsert := func() {
		i++
		k := i % n
		if m, err := d.Remove(flowKey(k)); err != nil || m != 1 {
			t.Fatalf("remove flow %d: %d, %v", k, m, err)
		}
		if err := d.Insert(flowTuple(k)); err != nil {
			t.Fatal(err)
		}
	}
	// Both measurements start from the same key, so they touch the same
	// flows in the same order and the engine's share is the same.
	measure := func() commitCost {
		i = 0
		return commitCost{
			updateAllocs: testing.AllocsPerRun(runs, update),
			removeAllocs: testing.AllocsPerRun(runs, removeInsert),
			updateBytes:  bytesPerRun(runs, update),
			removeBytes:  bytesPerRun(runs, removeInsert),
		}
	}
	bare := measure()
	p := newTestPublisher(t, d, PublisherOptions{Retain: retain})
	for p.Head() <= uint64(retain)+1 {
		update()
	}
	if base, _ := p.History(); base <= 1 {
		t.Fatalf("retained window not full: base %d", base)
	}
	return measure().sub(bare)
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestCommitCostIndependentOfRetainAndSize pins the publisher's O(1)
// commit: what it adds to an Update or Remove commit must not grow with
// the retained window (16 vs 4096 records) or with the table (1k vs 10k
// flows). It adds no allocation per commit, beyond the amortized growth
// of the retained window, and its bytes per commit stay within a few
// hundred of the smallest configuration's. A publisher that re-copies
// its tail per commit allocates O(Retain) bytes per commit.
func TestCommitCostIndependentOfRetainAndSize(t *testing.T) {
	// AllocsPerRun truncates each average to an integer, and under -race
	// sync.Pool drops items at random, so a difference of two averages
	// may read up to two high. A publisher that keeps a tuple mirror
	// adds 3 to 7.
	const slackAllocs = 2
	// A compacting append reallocates the window once every few hundred
	// commits; amortized that is a few hundred bytes per commit at
	// Retain 4096, against ~230 KB for a full tail copy.
	const slackBytes = 4096
	const runs = 1000
	var ref commitCost
	for i, c := range []struct{ n, retain int }{{1000, 16}, {1000, 4096}, {10000, 16}, {10000, 4096}} {
		got := publisherCommitCost(t, c.n, c.retain, runs)
		t.Logf("n=%d retain=%d: %+v", c.n, c.retain, got)
		if got.updateAllocs > slackAllocs || got.removeAllocs > slackAllocs {
			t.Errorf("n=%d retain=%d: the publisher adds allocations per commit: update %v, remove %v",
				c.n, c.retain, got.updateAllocs, got.removeAllocs)
		}
		if i == 0 {
			ref = got
			continue
		}
		if got.updateBytes > ref.updateBytes+slackBytes || got.removeBytes > ref.removeBytes+slackBytes {
			t.Errorf("n=%d retain=%d: publisher bytes per commit grew: update %.0f, remove %.0f (n=1000 retain=16: %.0f, %.0f)",
				c.n, c.retain, got.updateBytes, got.removeBytes, ref.updateBytes, ref.removeBytes)
		}
	}
}

// TestPublisherKeepsNoTupleCopy: the snapshot source is the engine's
// own published versions, so attaching a publisher to a 10k-flow table
// must not retain anything per tuple.
func TestPublisherKeepsNoTupleCopy(t *testing.T) {
	const n = 10000
	d := openFlows(t, n)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	p := newTestPublisher(t, d, PublisherOptions{})
	after := heap()
	if grown := int64(after) - int64(before); grown > n*16 {
		t.Fatalf("attaching a publisher grew the live heap by %d bytes (%d per tuple)", grown, grown/n)
	}
	runtime.KeepAlive(p)
}
