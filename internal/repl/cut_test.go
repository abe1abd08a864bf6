package repl

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/wal"
)

// The cut-exactness tests for the publisher's snapshot source: a
// snapshot is the union of the cells' pinned versions, and it must be
// exactly the state after the acknowledged records 1..seq it claims,
// on the sync tier and on the sharded tier, while writers race it.

// tierName names the tier openPrimary builds for shards.
func tierName(shards int) string {
	if shards == 0 {
		return "sync"
	}
	return fmt.Sprintf("sharded-%d", shards)
}

// snapshotAt subscribes as a fresh follower at the wire level, reads
// the bootstrap snapshot and hangs up. It returns the sequence the
// snapshot claims and its tuples.
func snapshotAt(t *testing.T, p *Publisher) (uint64, []relation.Tuple) {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	go p.Handle(server)
	fr := newFramer(client, nil, false, false)
	h := hello{version: protocolVersion, resume: 1, name: p.name, cols: p.cols}
	if err := fr.writeFrame(appendHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	dec := wal.NewStreamDecoder()
	var seq, n uint64
	var ts []relation.Tuple
	for {
		payload, err := fr.readFrame()
		if err != nil {
			t.Fatal(err)
		}
		switch payload[0] {
		case msgSnapBegin:
			if seq, n, err = parseSnapBegin(payload); err != nil {
				t.Fatal(err)
			}
		case msgSnapChunk:
			chunk, err := dec.ReadChunk(payload[1:])
			if err != nil {
				t.Fatal(err)
			}
			ts = append(ts, chunk...)
		case msgSnapEnd:
			if uint64(len(ts)) != n {
				t.Fatalf("snapshot at %d announced %d tuples, sent %d", seq, n, len(ts))
			}
			return seq, ts
		default:
			t.Fatalf("unexpected message 0x%02x during a snapshot", payload[0])
		}
	}
}

// replayStrict applies one acknowledged record to the oracle the way
// core.replayCommit applies it to a replica: every removal removes
// exactly one tuple and every insertion is new.
func replayStrict(t *testing.T, oracle *relation.Relation, c wal.Commit) {
	t.Helper()
	for _, tup := range c.Removed {
		if n := oracle.Remove(tup); n != 1 {
			t.Fatalf("record %d removes %d copies of %v, want 1", c.Seq, n, tup)
		}
	}
	for _, tup := range c.Inserted {
		if oracle.Contains(tup) {
			t.Fatalf("record %d re-inserts %v", c.Seq, tup)
		}
		if err := oracle.Insert(tup); err != nil {
			t.Fatalf("record %d: %v", c.Seq, err)
		}
	}
}

// runWriters runs 4 writers over overlapping scheduler keys until each
// has done ops operations: single inserts, updates, keyed removes, an
// InsertBatch that fans out across shards, and a pattern remove that
// fans out too. Rejected writes (FD violations, absent keys) are part of
// the mix; they acknowledge nothing.
func runWriters(d *core.DurableRelation, ops int) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < ops; i++ {
				ns, pid := rnd.Int63n(3)+1, rnd.Int63n(8)+1
				key := relation.NewTuple(relation.BindInt("ns", ns), relation.BindInt("pid", pid))
				switch rnd.Intn(6) {
				case 0, 1:
					_ = d.Insert(paperex.SchedulerTuple(ns, pid, rnd.Int63n(2), rnd.Int63n(8)))
				case 2:
					_, _ = d.Update(key, relation.NewTuple(relation.BindInt("cpu", rnd.Int63n(8))))
				case 3:
					_, _ = d.Remove(key)
				case 4:
					batch := make([]relation.Tuple, 0, 4)
					for j := int64(0); j < 4; j++ {
						batch = append(batch, paperex.SchedulerTuple(ns, (pid+j)%8+1, paperex.StateR, j))
					}
					_ = d.InsertBatch(batch)
				case 5:
					if i%8 == 0 {
						_, _ = d.Remove(relation.NewTuple(relation.BindInt("ns", ns)))
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestSnapshotCutExact subscribes fresh followers while 4 writers
// mutate the primary. Every snapshot served must equal the acknowledged
// history replayed up to the sequence the snapshot claims, and every
// real follower must bootstrap once and then stream with no replay
// failure (a bad cut would make its strict replay fail and force a
// resubscribe).
func TestSnapshotCutExact(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(tierName(shards), func(t *testing.T) {
			d := openPrimary(t, shards)
			for pid := int64(1); pid <= 8; pid++ {
				if err := d.Insert(paperex.SchedulerTuple(9, pid, paperex.StateS, pid)); err != nil {
					t.Fatal(err)
				}
			}
			attach, err := d.All()
			if err != nil {
				t.Fatal(err)
			}
			p := newTestPublisher(t, d, PublisherOptions{Retain: 1 << 20})

			done := make(chan struct{})
			go func() {
				defer close(done)
				runWriters(d, 400)
			}()
			type snap struct {
				seq uint64
				ts  []relation.Tuple
			}
			var snaps []snap
			var fols []*Follower
			var fms []*obs.Metrics
		sample:
			for {
				select {
				case <-done:
					break sample
				default:
				}
				seq, ts := snapshotAt(t, p)
				snaps = append(snaps, snap{seq, ts})
				if len(snaps)%4 == 1 && len(fols) < 3 {
					fm := &obs.Metrics{}
					fols = append(fols, newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{Metrics: fm}))
					fms = append(fms, fm)
				}
			}
			seq, ts := snapshotAt(t, p)
			snaps = append(snaps, snap{seq, ts})

			base, records := p.History()
			if base != 1 {
				t.Fatalf("history base = %d, want 1", base)
			}
			cols := schedSpec().Cols()
			oracle := asRel(t, cols, attach)
			sort.Slice(snaps, func(i, j int) bool { return snaps[i].seq < snaps[j].seq })
			next := 0
			for _, s := range snaps {
				for next < len(records) && records[next].Seq <= s.seq {
					replayStrict(t, oracle, records[next])
					next++
				}
				if !asRel(t, cols, s.ts).Equal(oracle) {
					t.Fatalf("snapshot at seq %d is not the acknowledged prefix:\ngot  %v\nwant %v", s.seq, s.ts, oracle.All())
				}
			}
			for ; next < len(records); next++ {
				replayStrict(t, oracle, records[next])
			}
			final, err := d.All()
			if err != nil {
				t.Fatal(err)
			}
			if !asRel(t, cols, final).Equal(oracle) {
				t.Fatal("the acknowledged history does not replay to the primary's state")
			}
			for i, f := range fols {
				if err := f.WaitFor(p.Head(), waitTimeout); err != nil {
					t.Fatalf("follower %d: %v (last session error: %v)", i, err, f.Err())
				}
				wantSame(t, d, f)
				if m := fms[i].Snapshot(); m.ReplSnapshots != 1 || m.ReplReconnects != 0 {
					t.Fatalf("follower %d: %d snapshots, %d reconnects, want 1 and 0 (last session error: %v)",
						i, m.ReplSnapshots, m.ReplReconnects, f.Err())
				}
			}
			t.Logf("%d snapshots and %d followers checked against %d records", len(snaps), len(fols), len(records))
		})
	}
}

// TestAttachDuringWrites attaches a publisher while 4 writers run. The
// sink moves from a first publisher, attached before any write, to the
// second one: every acknowledged delta must land in exactly one of the
// two histories, so the first one's attach state, then its records,
// then the second one's records, must replay strictly to the primary's
// final state. The second publisher's snapshot, taken at once, must be
// that replay's prefix at its sequence.
func TestAttachDuringWrites(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(tierName(shards), func(t *testing.T) {
			d := openPrimary(t, shards)
			attach, err := d.All()
			if err != nil {
				t.Fatal(err)
			}
			p1 := newTestPublisher(t, d, PublisherOptions{Retain: 1 << 20})
			done := make(chan struct{})
			go func() {
				defer close(done)
				runWriters(d, 400)
			}()
			for p1.Head() < 50 {
				select {
				case <-done:
					t.Fatal("writers finished before the second attach")
				default:
				}
				_, _ = snapshotAt(t, p1) // pace the attach without sleeping
			}
			p2 := newTestPublisher(t, d, PublisherOptions{Retain: 1 << 20})
			seq2, ts2 := snapshotAt(t, p2)
			<-done

			base1, rec1 := p1.History()
			base2, rec2 := p2.History()
			if base1 != 1 || base2 != 1 {
				t.Fatalf("history bases %d, %d, want 1", base1, base2)
			}
			if len(rec2) == 0 {
				t.Fatal("no writes after the second attach")
			}
			cols := schedSpec().Cols()
			oracle := asRel(t, cols, attach)
			for _, c := range rec1 {
				replayStrict(t, oracle, c)
			}
			// The second history numbers its deltas from 2, so its
			// snapshot at seq2 covers the first seq2-1 of them.
			k := int(seq2 - 1)
			for _, c := range rec2[:k] {
				replayStrict(t, oracle, c)
			}
			if !asRel(t, cols, ts2).Equal(oracle) {
				t.Fatalf("second publisher's snapshot at seq %d is not the acknowledged prefix", seq2)
			}
			for _, c := range rec2[k:] {
				replayStrict(t, oracle, c)
			}
			final, err := d.All()
			if err != nil {
				t.Fatal(err)
			}
			if !asRel(t, cols, final).Equal(oracle) {
				t.Fatalf("a delta was lost or doubled across the attach: %d + %d records do not replay to the primary's state", len(rec1), len(rec2))
			}
		})
	}
}
