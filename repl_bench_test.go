package repro

// Replication-tier benchmarks: what log shipping costs end to end and
// how fast a replica catches up.
//
//	make bench-repl        # writes BENCH_repl.json
//	benchstat BENCH_repl.json
//
// BenchmarkReplShip streams commits from a durable primary through a
// connected follower over the in-process pipe transport and counts an op
// only once the follower has applied it — the ns/op is the full path:
// engine mutation, WAL append, wire framing, decode, and the replica's
// copy-on-write publish. records/s counts the records the follower
// applied, and wireB/op the bytes it received. Three legs: distinct-flow inserts into an
// empty table, updates of a 10k-flow table, and removes from a table
// that never drops below 10k flows (it starts at 10k + b.N). The update
// and remove legs are the ones a per-commit cost that grows with the
// table would show in.
//
// BenchmarkReplCatchUp prepares a primary that wrote N records while the
// link was down and times the reconnected follower's tail replay to the
// acknowledged head; the snapshot sub-benchmark instead times a fresh
// follower bootstrapping the same state from a checkpoint snapshot
// frame. Both report records/s (tuples/s for the snapshot leg).
//
// BenchmarkReplLagProbe measures the replica-side read path while the
// stream is live: one keyed query against the follower's lock-free MVCC
// surface per op, with a 10% write mix arriving from the primary.

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/wal"
)

const replBenchWait = 60 * time.Second

func openReplBenchPrimary(b *testing.B) *core.DurableRelation {
	b.Helper()
	return openWALBench(b, b.TempDir(), true, wal.SyncOff, nil)
}

func newReplBenchPair(b *testing.B, d *core.DurableRelation, pm, fm *obs.Metrics) (*repl.Publisher, *repl.Follower) {
	b.Helper()
	pub, err := repl.NewPublisher(d, repl.PublisherOptions{Retain: 1 << 22, Metrics: pm})
	if err != nil {
		b.Fatal(err)
	}
	fol, err := repl.NewFollower(walBenchSpec(), repl.InProcDialer(pub), repl.FollowerOptions{
		Decomp:  walBenchDecomp(),
		Metrics: fm,
		Backoff: time.Millisecond,
	})
	if err != nil {
		pub.Close()
		b.Fatal(err)
	}
	if err := fol.WaitFor(1, replBenchWait); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		fol.Close()
		pub.Close()
	})
	return pub, fol
}

func BenchmarkReplShip(b *testing.B) {
	const flows = 10_000
	b.Run("insert", func(b *testing.B) {
		benchReplShip(b, 0, func(d *core.DurableRelation, i int) error {
			return d.Insert(walBenchTuple(i))
		})
	})
	b.Run(fmt.Sprintf("update-flows=%d", flows), func(b *testing.B) {
		benchReplShip(b, flows, func(d *core.DurableRelation, i int) error {
			_, err := d.Update(walBenchKey(i%flows), relation.NewTuple(relation.BindInt("bytes", int64(i))))
			return err
		})
	})
	b.Run(fmt.Sprintf("remove-flows=%d", flows), func(b *testing.B) {
		benchReplShip(b, flows+b.N, func(d *core.DurableRelation, i int) error {
			n, err := d.Remove(walBenchKey(i))
			if err == nil && n != 1 {
				err = fmt.Errorf("removed %d flows for key %d, want 1", n, i)
			}
			return err
		})
	})
}

// walBenchKey is the (local, foreign) key of walBenchTuple(i).
func walBenchKey(i int) relation.Tuple {
	return relation.NewTuple(
		relation.BindInt("local", int64(i%1024)),
		relation.BindInt("foreign", int64(i)),
	)
}

// benchReplShip preloads flows 0..preload-1 untimed, connects a
// follower, and times b.N commits made by op through to the follower.
func benchReplShip(b *testing.B, preload int, op func(d *core.DurableRelation, i int) error) {
	d := openReplBenchPrimary(b)
	defer d.Close()
	if preload > 0 {
		ts := make([]relation.Tuple, preload)
		for i := range ts {
			ts[i] = walBenchTuple(i)
		}
		if err := d.InsertBatch(ts); err != nil {
			b.Fatal(err)
		}
	}
	// Count on the follower side: its bytes are counted as frames
	// arrive, before the apply WaitFor waits on, so the last record is
	// never missing from the figures.
	fm := &obs.Metrics{}
	pub, fol := newReplBenchPair(b, d, nil, fm)
	head0, before := pub.Head(), fm.Snapshot() // leave the bootstrap out
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(d, i); err != nil {
			b.Fatal(err)
		}
	}
	if err := fol.WaitFor(pub.Head(), replBenchWait); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(pub.Head()-head0)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(fm.Snapshot().Sub(before).ReplBytes)/float64(b.N), "wireB/op")
}

// benchGate is a dialer wrapper that keeps the follower dark while the
// primary writes ahead, so catch-up is timed from a known backlog.
type benchGate struct {
	inner repl.Dialer
	mu    sync.Mutex
	shut  bool
	cur   io.Closer
}

func (g *benchGate) dial() (io.ReadWriteCloser, error) {
	g.mu.Lock()
	shut := g.shut
	g.mu.Unlock()
	if shut {
		return nil, fmt.Errorf("bench: link is down")
	}
	c, err := g.inner()
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.cur = c
	g.mu.Unlock()
	return c, nil
}

func (g *benchGate) set(shut bool) {
	g.mu.Lock()
	g.shut = shut
	cur := g.cur
	g.mu.Unlock()
	if shut && cur != nil {
		cur.Close()
	}
}

func BenchmarkReplCatchUp(b *testing.B) {
	ops := 20_000
	if testing.Short() {
		ops = 1_000
	}

	b.Run(fmt.Sprintf("tail-ops=%d", ops), func(b *testing.B) {
		d := openReplBenchPrimary(b)
		defer d.Close()
		pub, err := repl.NewPublisher(d, repl.PublisherOptions{Retain: 1 << 22})
		if err != nil {
			b.Fatal(err)
		}
		defer pub.Close()
		gd := &benchGate{inner: repl.InProcDialer(pub)}
		fol, err := repl.NewFollower(walBenchSpec(), gd.dial, repl.FollowerOptions{
			Decomp:  walBenchDecomp(),
			Backoff: time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer fol.Close()
		if err := fol.WaitFor(1, replBenchWait); err != nil {
			b.Fatal(err)
		}
		next := 0
		var replayed uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Build the backlog untimed, then time the reconnect drain.
			b.StopTimer()
			gd.set(true)
			for j := 0; j < ops; j++ {
				if err := d.Insert(walBenchTuple(next)); err != nil {
					b.Fatal(err)
				}
				next++
			}
			behind := pub.Head() - fol.Applied()
			gd.set(false)
			b.StartTimer()
			if err := fol.WaitFor(pub.Head(), replBenchWait); err != nil {
				b.Fatal(err)
			}
			replayed += behind
		}
		b.StopTimer()
		b.ReportMetric(float64(replayed)/b.Elapsed().Seconds(), "records/s")
	})

	b.Run(fmt.Sprintf("snapshot-tuples=%d", ops), func(b *testing.B) {
		d := openReplBenchPrimary(b)
		defer d.Close()
		for i := 0; i < ops; i++ {
			if err := d.Insert(walBenchTuple(i)); err != nil {
				b.Fatal(err)
			}
		}
		pub, err := repl.NewPublisher(d, repl.PublisherOptions{Retain: 1 << 22})
		if err != nil {
			b.Fatal(err)
		}
		defer pub.Close()
		var tuples uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fol, err := repl.NewFollower(walBenchSpec(), repl.InProcDialer(pub), repl.FollowerOptions{
				Decomp:  walBenchDecomp(),
				Backoff: time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := fol.WaitFor(pub.Head(), replBenchWait); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			tuples += uint64(fol.Len())
			fol.Close()
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/s")
	})
}

func BenchmarkReplLagProbe(b *testing.B) {
	d := openReplBenchPrimary(b)
	defer d.Close()
	keys := 4096
	for i := 0; i < keys; i++ {
		if err := d.Insert(walBenchTuple(i)); err != nil {
			b.Fatal(err)
		}
	}
	fm := &obs.Metrics{}
	pub, fol := newReplBenchPair(b, d, nil, fm)
	if err := fol.WaitFor(pub.Head(), replBenchWait); err != nil {
		b.Fatal(err)
	}
	out := []string{"foreign", "bytes"}
	var maxLag uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10 == 9 {
			j := i * 7919 % keys
			key := relation.NewTuple(
				relation.BindInt("local", int64(j%1024)),
				relation.BindInt("foreign", int64(j)),
			)
			if _, err := d.Update(key, relation.NewTuple(relation.BindInt("bytes", int64(i)))); err != nil {
				b.Fatal(err)
			}
			if lag := fol.Lag(); lag > maxLag {
				maxLag = lag
			}
			continue
		}
		pat := relation.NewTuple(relation.BindInt("local", int64(i*7919%1024)))
		if _, err := fol.Query(pat, out); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := fol.WaitFor(pub.Head(), replBenchWait); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(maxLag), "maxlag-records")
}
