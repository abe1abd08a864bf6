package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/value"
	"repro/internal/wal"
)

// ErrClosed is returned by every operation on a DurableRelation after
// Close. Queries fail too: a closed relation's logs no longer record
// writes, so continuing to serve reads would hide the missing durability
// from a caller holding the handle across the close.
var ErrClosed = errors.New("core: durable relation is closed")

// DurableRelation is the persistence tier: it wraps one of the MVCC
// engines (SyncRelation or ShardedRelation) and write-ahead-logs every
// mutation's logical delta — the full tuples removed and inserted — to a
// per-cell wal.Log before the new version is published. The WAL ordering
// invariant is the write path's whole contract: a version is published to
// readers only after its delta is on the log (and, under wal.SyncAlways,
// fsynced), so any state a reader — or a crash — can observe is
// reconstructible from the log. Conversely a delta whose append fails is
// never published: the fork is dropped exactly like a failed mutation on
// the MVCC tiers, the caller gets the append error, and a retry is safe
// because wal.Log.Append guarantees a failed record is not on disk.
//
// Logging is logical (tuples, not decomposition nodes), so the log is
// representation-independent: recovery replays deltas through the normal
// copy-on-write mutation path against a freshly synthesized instance,
// which means a log written under one decomposition can be recovered
// under another, and a fault during replay drops an unpublished fork
// instead of poisoning the relation being rebuilt.
//
// The sharded engine gets one log per shard, appended under that shard's
// writer mutex — per-shard group commit, no global ordering. Cross-shard
// operations (fan-out removes, batches) are atomic per shard, exactly as
// loud as the underlying tier documents, and recovery rebuilds each shard
// cell from its own snapshot+log pair.
//
// Queries are untouched: they run lock-free against published snapshots
// through the embedded tier, same plans, same cache, same metrics.
type DurableRelation struct {
	sync *SyncRelation    // exactly one of sync
	shr  *ShardedRelation // ... and shr is non-nil
	logs []*wal.Log       // one per cell: logs[0] for sync, logs[i] per shard
	met  *obs.Metrics
	sink CommitSink // acknowledged-delta tap; read under a cell mutex, written under all of them

	closed atomic.Bool
}

// NewDurableSync wraps an MVCC relation with a write-ahead log. The
// SyncRelation's current published state must already be covered by the
// log's snapshot/record history (freshly built engines with a fresh log
// trivially are; recovered ones are by construction in durable.Open).
func NewDurableSync(s *SyncRelation, log *wal.Log) *DurableRelation {
	return &DurableRelation{sync: s, logs: []*wal.Log{log}, met: s.Metrics()}
}

// NewDurableSharded wraps a sharded engine with one write-ahead log per
// shard; len(logs) must equal sr.NumShards().
func NewDurableSharded(sr *ShardedRelation, logs []*wal.Log) (*DurableRelation, error) {
	if len(logs) != sr.NumShards() {
		return nil, fmt.Errorf("core: durable sharded relation needs one log per shard: %d logs for %d shards", len(logs), sr.NumShards())
	}
	return &DurableRelation{shr: sr, logs: logs, met: sr.Metrics()}, nil
}

// A CommitSink observes every acknowledged delta of a DurableRelation,
// in the order the engine acknowledged it: the sink is invoked after the
// record is on the write-ahead log and the new version is published,
// while the mutating cell's writer mutex is still held — so per cell the
// sink sees deltas in exactly WAL order, and a delta it never sees was
// never acknowledged. Along with the delta it receives the index of the
// cell that logged it and that cell's version just published, which
// already includes the delta: the cell's whole state after its log
// records up to and including c, immutable and safe to read at leisure.
// The sink must not call back into the relation's mutation API (the
// cell mutex is held) and must be fast: it runs on the writer's
// critical path. The replication plane (internal/repl) is the intended
// consumer.
type CommitSink func(c wal.Commit, cell int, v *Relation)

// SetCommitSink installs (or with nil, removes) the acknowledged-delta
// tap and returns each cell's published version at the installation
// point, indexed by cell: every delta acknowledged before SetCommitSink
// returned is in those versions, and every delta acknowledged after it
// reaches the sink exactly once — no gap, no overlap. The cut is exact
// because installation holds every cell's writer mutex, so no writer is
// between its log append and its sink call while the versions are
// pinned. On a closed relation it returns ErrClosed; no writer reaches
// the installed sink there.
func (d *DurableRelation) SetCommitSink(sink CommitSink) ([]*Relation, error) {
	var vers []*Relation
	if d.sync != nil {
		s := d.sync
		s.wmu.Lock()
		defer s.wmu.Unlock()
		vers = []*Relation{s.cur.Load()}
	} else {
		vers = make([]*Relation, len(d.shr.shards))
		for i := range d.shr.shards {
			sh := &d.shr.shards[i]
			sh.wmu.Lock()
			defer sh.wmu.Unlock()
			vers[i] = sh.cur.Load()
		}
	}
	d.sink = sink
	if d.closed.Load() {
		return nil, ErrClosed
	}
	return vers, nil
}

// ship hands one acknowledged delta, with the cell's version that now
// includes it, to the sink, if any. Called with the mutating cell's
// writer mutex held, after log append and publish.
func (d *DurableRelation) ship(c wal.Commit, cell int, cur *atomic.Pointer[Relation]) {
	if d.sink != nil {
		d.sink(c, cell, cur.Load())
	}
}

// Spec returns the relational specification.
func (d *DurableRelation) Spec() *Spec {
	if d.sync != nil {
		return d.sync.cur.Load().spec
	}
	return d.shr.spec
}

// Sharded reports whether the embedded tier is the sharded engine.
func (d *DurableRelation) Sharded() bool { return d.shr != nil }

// NumCells returns the number of independently logged cells: 1 for the
// sync tier, the shard count for the sharded tier.
func (d *DurableRelation) NumCells() int { return len(d.logs) }

// Log exposes cell i's write-ahead log for tests and tooling.
func (d *DurableRelation) Log(i int) *wal.Log { return d.logs[i] }

// Metrics returns the attached metrics sink, or nil.
func (d *DurableRelation) Metrics() *obs.Metrics { return d.met }

// Insert implements insert r t, durably: fork, mutate copy-on-write, log
// the delta, publish. A no-op insert (tuple already present) logs
// nothing.
func (d *DurableRelation) Insert(t relation.Tuple) error {
	if d.sync != nil {
		s := d.sync
		s.wmu.Lock()
		defer s.wmu.Unlock()
		return d.insertCell(0, &s.cur, t)
	}
	sr := d.shr
	i, err := sr.ro.mustRoute(t)
	if err != nil {
		return err
	}
	sr.routed()
	sh := &sr.shards[i]
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	return d.insertCell(i, &sh.cur, t)
}

// insertCell is the per-cell insert body; called with the cell's writer
// mutex held, like every *Cell method below.
func (d *DurableRelation) insertCell(cell int, cur *atomic.Pointer[Relation], t relation.Tuple) error {
	if d.closed.Load() {
		return ErrClosed
	}
	next := cur.Load().beginVersion()
	changed, err := next.insert(t)
	if err == nil && changed {
		if werr := d.logs[cell].Append(wal.Commit{Inserted: []relation.Tuple{t}}); werr != nil {
			publishCell(cur, next, false, werr)
			return werr
		}
	}
	publishCell(cur, next, changed, err)
	if err == nil && changed {
		d.ship(wal.Commit{Inserted: []relation.Tuple{t}}, cell, cur)
	}
	return err
}

// publishCell is relShard.publish/SyncRelation.publish generalized over
// the cell's atomic pointer, so the durable write path has one body for
// both tiers.
//
//relvet:role=publish
func publishCell(cur *atomic.Pointer[Relation], next *Relation, changed bool, err error) {
	m := next.metrics
	switch {
	case err != nil:
		if m != nil {
			m.SnapDrops.Add(1)
		}
	case changed:
		cur.Store(next)
		if m != nil {
			m.SnapPublishes.Add(1)
		}
	}
}

// Remove implements remove r s, durably. Every removed tuple is logged in
// full — the delta, not the pattern — so replay does not depend on the
// pattern semantics of a future build. On the sharded tier a pattern
// binding the shard key removes (and logs) on one shard; any other
// pattern fans out and each shard logs its own removals on its own log.
func (d *DurableRelation) Remove(pat relation.Tuple) (int, error) {
	if d.sync != nil {
		s := d.sync
		s.wmu.Lock()
		defer s.wmu.Unlock()
		return d.removeCell(0, &s.cur, pat)
	}
	sr := d.shr
	if i, ok := sr.ro.route(pat); ok {
		sr.routed()
		sh := &sr.shards[i]
		sh.wmu.Lock()
		defer sh.wmu.Unlock()
		return d.removeCell(i, &sh.cur, pat)
	}
	if d.closed.Load() {
		return 0, ErrClosed
	}
	counts := make([]int, len(sr.shards))
	err := sr.fanOut(func(i int, sh *relShard) error {
		sh.wmu.Lock()
		defer sh.wmu.Unlock()
		n, err := d.removeCell(i, &sh.cur, pat)
		counts[i] = n
		return err
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}

func (d *DurableRelation) removeCell(cell int, cur *atomic.Pointer[Relation], pat relation.Tuple) (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	next := cur.Load().beginVersion()
	removed, err := next.remove(pat)
	if err == nil && len(removed) > 0 {
		if werr := d.logs[cell].Append(wal.Commit{Removed: removed}); werr != nil {
			publishCell(cur, next, false, werr)
			return 0, werr
		}
	}
	publishCell(cur, next, len(removed) > 0, err)
	if err != nil {
		return 0, err
	}
	if len(removed) > 0 {
		d.ship(wal.Commit{Removed: removed}, cell, cur)
	}
	return len(removed), nil
}

// Update implements the keyed dupdate, durably: the delta logged is the
// full stored tuple replaced and the full merged tuple now stored, so
// replay is two exact-tuple operations with no key reasoning. The
// sharded point-update fast path is not taken on this tier — it does not
// report the replaced tuple, and the fsync on the log dwarfs the saved
// plan work.
func (d *DurableRelation) Update(pat, u relation.Tuple) (int, error) {
	if d.sync != nil {
		s := d.sync
		s.wmu.Lock()
		defer s.wmu.Unlock()
		return d.updateCell(0, &s.cur, pat, u)
	}
	sr := d.shr
	if i, ok := sr.ro.route(pat); ok {
		sr.routed()
		sh := &sr.shards[i]
		sh.wmu.Lock()
		defer sh.wmu.Unlock()
		return d.updateCell(i, &sh.cur, pat, u)
	}
	if d.closed.Load() {
		return 0, ErrClosed
	}
	counts := make([]int, len(sr.shards))
	err := sr.fanOut(func(i int, sh *relShard) error {
		sh.wmu.Lock()
		defer sh.wmu.Unlock()
		n, err := d.updateCell(i, &sh.cur, pat, u)
		counts[i] = n
		return err
	})
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, err
}

func (d *DurableRelation) updateCell(cell int, cur *atomic.Pointer[Relation], pat, u relation.Tuple) (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	next := cur.Load().beginVersion()
	// One logical update; updateDelta leaves the counter to its caller.
	if next.metrics != nil {
		next.metrics.Updates.Add(1)
	}
	n, old, upd, err := next.updateDelta(pat, u)
	if err == nil && n > 0 {
		if werr := d.logs[cell].Append(wal.Commit{Removed: []relation.Tuple{old}, Inserted: []relation.Tuple{upd}}); werr != nil {
			publishCell(cur, next, false, werr)
			return 0, werr
		}
	}
	publishCell(cur, next, n > 0, err)
	if err != nil {
		return 0, err
	}
	if n > 0 {
		d.ship(wal.Commit{Removed: []relation.Tuple{old}, Inserted: []relation.Tuple{upd}}, cell, cur)
	}
	return n, nil
}

// InsertBatch inserts many tuples with one version fork and one log
// record per touched cell: N inserts cost one commit (and one fsync under
// SyncAlways) per cell instead of N. Only the tuples that actually
// changed the relation are logged. Per-cell atomicity matches the
// sharded tier: a failing cell drops its fork and logs nothing, without
// disturbing its peers.
func (d *DurableRelation) InsertBatch(ts []relation.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	if d.sync != nil {
		s := d.sync
		s.wmu.Lock()
		defer s.wmu.Unlock()
		return d.insertBatchCell(0, &s.cur, ts)
	}
	sr := d.shr
	groups := make([][]relation.Tuple, len(sr.shards))
	for _, t := range ts {
		i, err := sr.ro.mustRoute(t)
		if err != nil {
			return err
		}
		groups[i] = append(groups[i], t)
	}
	if d.closed.Load() {
		return ErrClosed
	}
	return sr.fanOut(func(i int, sh *relShard) error {
		if len(groups[i]) == 0 {
			return nil
		}
		sh.wmu.Lock()
		defer sh.wmu.Unlock()
		return d.insertBatchCell(i, &sh.cur, groups[i])
	})
}

func (d *DurableRelation) insertBatchCell(cell int, cur *atomic.Pointer[Relation], ts []relation.Tuple) error {
	if d.closed.Load() {
		return ErrClosed
	}
	next := cur.Load().beginVersion()
	var inserted []relation.Tuple
	for _, t := range ts {
		ch, err := next.insert(t)
		if err != nil {
			publishCell(cur, next, false, err)
			return err
		}
		if ch {
			inserted = append(inserted, t)
		}
	}
	if len(inserted) > 0 {
		if werr := d.logs[cell].Append(wal.Commit{Inserted: inserted}); werr != nil {
			publishCell(cur, next, false, werr)
			return werr
		}
	}
	publishCell(cur, next, len(inserted) > 0, nil)
	if len(inserted) > 0 {
		d.ship(wal.Commit{Inserted: inserted}, cell, cur)
	}
	return nil
}

// Query implements query r s C against the embedded tier's published
// snapshots, lock-free.
//
//relvet:role=read
func (d *DurableRelation) Query(pat relation.Tuple, out []string) ([]relation.Tuple, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	if d.sync != nil {
		return d.sync.Query(pat, out)
	}
	return d.shr.Query(pat, out)
}

// QueryFunc streams results from the embedded tier, lock-free.
//
//relvet:role=read
func (d *DurableRelation) QueryFunc(pat relation.Tuple, out []string, f func(relation.Tuple) bool) error {
	if d.closed.Load() {
		return ErrClosed
	}
	if d.sync != nil {
		return d.sync.QueryFunc(pat, out, f)
	}
	return d.shr.QueryFunc(pat, out, f)
}

// QueryRange implements the order-based query against the embedded tier.
//
//relvet:role=read
func (d *DurableRelation) QueryRange(pat relation.Tuple, col string, lo, hi *value.Value, out []string) ([]relation.Tuple, error) {
	if d.closed.Load() {
		return nil, ErrClosed
	}
	if d.sync != nil {
		return d.sync.QueryRange(pat, col, lo, hi, out)
	}
	return d.shr.QueryRange(pat, col, lo, hi, out)
}

// Len returns the tuple count of the published state.
//
//relvet:role=read
func (d *DurableRelation) Len() int {
	if d.sync != nil {
		return d.sync.Len()
	}
	return d.shr.Len()
}

// All returns every tuple in deterministic order.
func (d *DurableRelation) All() ([]relation.Tuple, error) {
	return d.Query(relation.NewTuple(), d.Spec().Cols().Names())
}

// CheckInvariants verifies the embedded tier's published state.
func (d *DurableRelation) CheckInvariants() error {
	if d.sync != nil {
		return d.sync.CheckInvariants()
	}
	return d.shr.CheckInvariants()
}

// ExplainQuery reports the embedded tier's explanation with the durable
// tag: the shape's plan, cache and routing provenance are unchanged by
// logging (queries never touch the log), but the tag records that writes
// to this relation are write-ahead logged.
//
//relvet:role=read
func (d *DurableRelation) ExplainQuery(input, output []string) (*QueryExplain, error) {
	var (
		e   *QueryExplain
		err error
	)
	if d.sync != nil {
		e, err = d.sync.ExplainQuery(input, output)
	} else {
		e, err = d.shr.ExplainQuery(input, output)
	}
	if err != nil {
		return nil, err
	}
	e.Durable = true
	return e, nil
}

// Sync forces every cell's log to stable storage. Under wal.SyncInterval
// this is the caller's explicit commit barrier: when Sync returns nil,
// every previously acknowledged write is durable.
func (d *DurableRelation) Sync() error {
	if d.closed.Load() {
		return ErrClosed
	}
	var first error
	for _, l := range d.logs {
		if err := l.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint serializes each cell's current published state to a
// snapshot file next to its log and truncates the log, bounding recovery
// replay. Per cell, under its writer mutex: snapshot covering every
// record up to the log's last sequence number is written atomically
// (tmp+fsync+rename), the log rotates to a fresh file starting after the
// covered prefix, and older snapshot files are garbage collected. A
// crash between the snapshot rename and the rotation is safe: replay
// skips log records the snapshot already covers, by sequence number.
//
// A failed snapshot write leaves the cell exactly as it was — old log
// intact, old snapshots intact — so Checkpoint is always safe to retry.
func (d *DurableRelation) Checkpoint() error {
	if d.closed.Load() {
		return ErrClosed
	}
	if d.sync != nil {
		s := d.sync
		s.wmu.Lock()
		defer s.wmu.Unlock()
		return d.checkpointCell(&s.cur, d.logs[0])
	}
	sr := d.shr
	for i := range sr.shards {
		sh := &sr.shards[i]
		sh.wmu.Lock()
		err := d.checkpointCell(&sh.cur, d.logs[i])
		sh.wmu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

func (d *DurableRelation) checkpointCell(cur *atomic.Pointer[Relation], log *wal.Log) error {
	if d.closed.Load() {
		return ErrClosed
	}
	seq := log.LastSeq()
	r := cur.Load()
	tuples := r.inst.Relation().All()
	dir := filepath.Dir(log.Path())
	path := filepath.Join(dir, SnapshotName(seq))
	if _, err := wal.WriteSnapshot(path, seq, tuples, r.metrics); err != nil {
		return err
	}
	if err := log.Rotate(seq + 1); err != nil {
		return err
	}
	gcSnapshots(dir, seq)
	return nil
}

// ShardDirName is the per-shard cell directory name under a durable
// sharded relation's root directory.
func ShardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// SnapshotName is the file name of the checkpoint covering log records
// with sequence numbers ≤ seq. The fixed-width hex encoding makes
// lexicographic order equal sequence order.
func SnapshotName(seq uint64) string {
	return fmt.Sprintf("snap-%016x.snap", seq)
}

// ParseSnapshotName inverts SnapshotName.
func ParseSnapshotName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "snap-%016x.snap", &seq); err != nil {
		return 0, false
	}
	if name != SnapshotName(seq) {
		return 0, false
	}
	return seq, true
}

// gcSnapshots removes snapshot files older than the one covering keep,
// plus abandoned temporaries. Best-effort: a leftover file is wasted
// space, not a correctness problem — recovery picks the highest-numbered
// valid snapshot.
func gcSnapshots(dir string, keep uint64) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := ParseSnapshotName(name); ok && seq < keep {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// Close flushes and closes every cell's log and marks the relation
// closed; every later operation returns ErrClosed. Acquiring each cell's
// writer mutex fences in-flight writers: once Close holds the mutex, no
// writer can be between its log append and its publish.
func (d *DurableRelation) Close() error {
	if d.closed.Swap(true) {
		return ErrClosed
	}
	var first error
	closeCell := func(l *wal.Log) {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.sync != nil {
		s := d.sync
		s.wmu.Lock()
		closeCell(d.logs[0])
		s.wmu.Unlock()
		return first
	}
	for i := range d.shr.shards {
		sh := &d.shr.shards[i]
		sh.wmu.Lock()
		closeCell(d.logs[i])
		sh.wmu.Unlock()
	}
	return first
}

// Replay application: recovery routes every snapshot chunk and log
// record through the same copy-on-write publish path live mutations use.
// A fault mid-replay therefore drops an unpublished fork and leaves the
// relation being rebuilt at its last published (fully applied) state —
// never a torn or poisoned one — which is what lets durable.Open fail
// loudly and be retried.

// ReplaySnapshot applies a checkpoint's tuples to the relation as one
// atomic version. Every tuple must be new: a duplicate means the
// snapshot disagrees with the relation it is being loaded into, which is
// corruption, not idempotence.
func ReplaySnapshot(s *SyncRelation, ts []relation.Tuple) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return replayTuples(&s.cur, ts)
}

// ReplayShardSnapshot is ReplaySnapshot for one shard cell of a sharded
// engine; the tuples must belong to shard i (they came from its own
// snapshot file, and CheckInvariants verifies routing after recovery).
func ReplayShardSnapshot(sr *ShardedRelation, i int, ts []relation.Tuple) error {
	sh := &sr.shards[i]
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	return replayTuples(&sh.cur, ts)
}

func replayTuples(cur *atomic.Pointer[Relation], ts []relation.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	next := cur.Load().beginVersion()
	for _, t := range ts {
		ch, err := next.insert(t)
		if err != nil {
			publishCell(cur, next, false, err)
			return err
		}
		if !ch {
			err := fmt.Errorf("core: replay inserted duplicate tuple %v", t)
			publishCell(cur, next, false, err)
			return err
		}
	}
	publishCell(cur, next, true, nil)
	return nil
}

// ReplayCommit applies one logged delta as one atomic version: every
// removed tuple must remove exactly one stored tuple and every inserted
// tuple must be new. The log records acknowledged operations against
// known state, so any mismatch means the snapshot/log pair is
// inconsistent and recovery must fail loudly rather than guess.
func ReplayCommit(s *SyncRelation, c wal.Commit) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return replayCommit(&s.cur, c)
}

// ReplayShardCommit is ReplayCommit for one shard cell.
func ReplayShardCommit(sr *ShardedRelation, i int, c wal.Commit) error {
	sh := &sr.shards[i]
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	return replayCommit(&sh.cur, c)
}

// ReplayShardedSnapshot applies a logical snapshot — tuples that are NOT
// pre-partitioned for this engine's layout — by routing each tuple to
// its shard and applying per shard. A replication follower uses it to
// bootstrap a sharded replica whose shard key or count differs from the
// publisher's. Atomic per shard, like every sharded operation.
func ReplayShardedSnapshot(sr *ShardedRelation, ts []relation.Tuple) error {
	groups := make([][]relation.Tuple, len(sr.shards))
	for _, t := range ts {
		i, err := sr.ro.mustRoute(t)
		if err != nil {
			return err
		}
		groups[i] = append(groups[i], t)
	}
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := ReplayShardSnapshot(sr, i, g); err != nil {
			return err
		}
	}
	return nil
}

// ReplayShardedCommit applies one logical delta to a sharded engine by
// routing the removed and inserted tuples to their shards and replaying
// each shard's piece as its own atomic version, removals before
// insertions. Deltas produced by the durable write path route whole to
// one shard whenever the replica shares the publisher's shard key
// (mutations preserve key columns); under a different key a delta may
// split, in which case readers get the sharded tier's documented
// per-shard snapshot consistency.
func ReplayShardedCommit(sr *ShardedRelation, c wal.Commit) error {
	type piece struct{ removed, inserted []relation.Tuple }
	pieces := make(map[int]*piece)
	at := func(i int) *piece {
		p := pieces[i]
		if p == nil {
			p = &piece{}
			pieces[i] = p
		}
		return p
	}
	for _, t := range c.Removed {
		i, err := sr.ro.mustRoute(t)
		if err != nil {
			return err
		}
		at(i).removed = append(at(i).removed, t)
	}
	for _, t := range c.Inserted {
		i, err := sr.ro.mustRoute(t)
		if err != nil {
			return err
		}
		at(i).inserted = append(at(i).inserted, t)
	}
	for i := range sr.shards {
		p := pieces[i]
		if p == nil {
			continue
		}
		err := ReplayShardCommit(sr, i, wal.Commit{Seq: c.Seq, Removed: p.removed, Inserted: p.inserted})
		if err != nil {
			return err
		}
	}
	return nil
}

func replayCommit(cur *atomic.Pointer[Relation], c wal.Commit) error {
	if len(c.Removed) == 0 && len(c.Inserted) == 0 {
		return nil
	}
	next := cur.Load().beginVersion()
	fail := func(err error) error {
		publishCell(cur, next, false, err)
		return err
	}
	for _, t := range c.Removed {
		removed, err := next.remove(t)
		if err != nil {
			return fail(err)
		}
		if len(removed) != 1 {
			return fail(fmt.Errorf("core: replay of record %d removed %d tuples for %v, want exactly 1", c.Seq, len(removed), t))
		}
	}
	for _, t := range c.Inserted {
		ch, err := next.insert(t)
		if err != nil {
			return fail(err)
		}
		if !ch {
			return fail(fmt.Errorf("core: replay of record %d inserted duplicate tuple %v", c.Seq, t))
		}
	}
	publishCell(cur, next, true, nil)
	return nil
}
