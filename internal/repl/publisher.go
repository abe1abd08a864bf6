package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
)

// ErrPublisherClosed is returned by operations on a closed Publisher.
var ErrPublisherClosed = errors.New("repl: publisher is closed")

// snapChunkTuples is how many tuples one snapshot-chunk frame carries,
// matching the WAL's snapshot writer.
const snapChunkTuples = 4096

// DefaultRetain is how many acknowledged records a Publisher keeps in
// memory for follower catch-up before compacting; a follower needing an
// older record bootstraps from a fresh snapshot instead.
const DefaultRetain = 1024

// PublisherOptions configures NewPublisher.
type PublisherOptions struct {
	// Retain bounds the in-memory catch-up history (default
	// DefaultRetain). A follower whose resume point has been compacted
	// away — brand new, or partitioned for longer than Retain writes —
	// is served a full snapshot instead of the missing records.
	Retain int

	// Metrics receives the publisher-side replication counters:
	// repl.records and repl.bytes sent, repl.snapshots served.
	Metrics *obs.Metrics
}

// Publisher ships a durable relation's acknowledged commit log to any
// number of subscribed followers. It taps the relation's commit stream
// (core.SetCommitSink), assigns each acknowledged delta one dense
// replication sequence number, and retains a bounded history plus the
// engine's own published version of every cell as of the newest record,
// so every subscription can be answered either by streaming retained
// records from the follower's resume point or by a snapshot read from
// those pinned versions at an exact sequence number. All methods are
// safe for concurrent use.
type Publisher struct {
	d    *core.DurableRelation
	name string
	cols []string
	met  *obs.Metrics

	mu      sync.Mutex
	cond    *sync.Cond
	vers    []*core.Relation // per-cell published versions: the state after records[1..head]
	head    uint64           // sequence of the newest acknowledged record
	base    uint64           // records holds sequences base+1 .. head
	records []wal.Commit
	retain  int
	conns   map[io.Closer]struct{}
	closed  bool
}

// NewPublisher attaches a publisher to d. The returned publisher owns
// d's commit sink until Close. Sequence 1 is the attach-time state of
// the relation (possibly empty) — never a delta — so a fresh follower,
// whose applied count of 0 means "I hold the empty relation", always
// bootstraps through a snapshot; deltas acknowledged after NewPublisher
// returns are numbered from 2. Sequence numbers are publisher-
// incarnation scoped: a follower must not resume a subscription from one
// incarnation against another (the primary's durable state survives
// restarts, the stream numbering does not).
func NewPublisher(d *core.DurableRelation, opts PublisherOptions) (*Publisher, error) {
	spec := d.Spec()
	p := &Publisher{
		d:      d,
		name:   spec.Name,
		cols:   specColumns(spec),
		met:    opts.Metrics,
		retain: opts.Retain,
		conns:  make(map[io.Closer]struct{}),
	}
	if p.retain <= 0 {
		p.retain = DefaultRetain
	}
	p.cond = sync.NewCond(&p.mu)
	// Hold p.mu across the install so the sink cannot record a delta
	// before the attach versions are in place. No deadlock: a writer
	// reaches onCommit only under a cell mutex that SetCommitSink has
	// already released.
	p.mu.Lock()
	defer p.mu.Unlock()
	vers, err := d.SetCommitSink(p.onCommit)
	if err != nil {
		return nil, err
	}
	p.vers = vers
	// The attach state is sequence 1; base == head means no retained
	// records, and resume == 1 is always <= base, forcing bootstrap.
	p.head, p.base = 1, 1
	return p, nil
}

// onCommit is the core.CommitSink: it runs on the writer's critical path
// with the mutating cell's writer mutex held, so per cell it observes
// deltas and versions in WAL order; the publisher mutex serializes cells
// into the one replication stream. Its cost is independent of the table
// size and of Retain: it pins the cell's new version, appends the record,
// and drops compacted records by reslicing.
func (p *Publisher) onCommit(c wal.Commit, cell int, v *core.Relation) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.vers[cell] = v
	p.head++
	c.Seq = p.head
	p.records = append(p.records, c)
	if len(p.records) > p.retain {
		drop := len(p.records) - p.retain
		clear(p.records[:drop]) // let the dropped deltas' tuples be collected
		p.records = p.records[drop:]
		p.base += uint64(drop)
	}
	p.cond.Broadcast()
}

// Head returns the sequence number of the newest acknowledged record.
func (p *Publisher) Head() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.head
}

// History returns the retained record window: every kept record, whose
// sequences run base+1 through Head. Tests use it as the oracle of
// acknowledged history; set Retain high enough that nothing compacts.
func (p *Publisher) History() (base uint64, records []wal.Commit) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.base, append([]wal.Commit(nil), p.records...)
}

// Serve accepts subscriptions from ln until the listener or the
// publisher closes, one goroutine per connection.
func (p *Publisher) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go p.Handle(conn)
	}
}

// Handle runs one subscription session on rw and returns why it ended.
// It owns rw and closes it. Safe to run concurrently with other
// sessions, writers, and Close; panics (including injected kill-points)
// are contained and end the session like an error, modelling a dropped
// connection that the follower's catch-up must absorb.
func (p *Publisher) Handle(rw io.ReadWriteCloser) (err error) {
	defer rw.Close()
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("repl: publisher session panic: %v", rec)
		}
	}()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPublisherClosed
	}
	p.conns[rw] = struct{}{}
	p.mu.Unlock()
	dead := false
	defer func() {
		p.mu.Lock()
		delete(p.conns, rw)
		p.mu.Unlock()
	}()
	// A follower sends nothing after hello; a read unblocking means the
	// peer hung up (or broke protocol). Either way the session is over —
	// flag it and wake the send loop out of its wait.
	watch := func() {
		var one [1]byte
		rw.Read(one[:])
		p.mu.Lock()
		dead = true
		p.mu.Unlock()
		p.cond.Broadcast()
	}

	f := newFramer(rw, p.met, false, true)
	refuse := func(msg string) error {
		f.writeFrame(appendErrorMsg(nil, msg))
		return fmt.Errorf("repl: refused subscription: %s", msg)
	}

	payload, err := f.readFrame()
	if err != nil {
		return err
	}
	if len(payload) == 0 || payload[0] != msgHello {
		return refuse("expected hello")
	}
	h, err := parseHello(payload)
	if err != nil {
		return refuse(err.Error())
	}
	if h.version != protocolVersion {
		return refuse(fmt.Sprintf("protocol version %d, this publisher speaks %d", h.version, protocolVersion))
	}
	if h.name != p.name {
		return refuse(fmt.Sprintf("relation %q, this publisher serves %q", h.name, p.name))
	}
	if !eqStrings(h.cols, p.cols) {
		return refuse(fmt.Sprintf("columns %v, this publisher serves %v", h.cols, p.cols))
	}
	if h.resume == 0 {
		return refuse("resume sequence 0: sequences are 1-based")
	}

	// Decide snapshot versus tail under the lock, so the cut is exact.
	p.mu.Lock()
	next := h.resume
	var snapVers []*core.Relation
	var snapSeq uint64
	sendSnap := false
	switch {
	case h.resume > p.head+1:
		// The never-ahead half of the contract: a follower claiming
		// records this publisher never acknowledged is from another
		// incarnation and must not be silently rewound.
		head := p.head
		p.mu.Unlock()
		return refuse(fmt.Sprintf("resume %d is ahead of acknowledged head %d: follower belongs to another publisher incarnation", h.resume, head))
	case h.resume <= p.base:
		// Resume point compacted away (or fresh follower): bootstrap
		// from the cell versions that hold exactly head. They are
		// immutable, so the tuples are read after the lock is released.
		snapVers = append([]*core.Relation(nil), p.vers...)
		snapSeq = p.head
		next = p.head + 1
		sendSnap = true
	}
	p.mu.Unlock()

	go watch()
	enc := wal.NewStreamEncoder()
	if sendSnap {
		if err := p.sendSnapshot(f, enc, snapSeq, snapVers); err != nil {
			return err
		}
	}

	// The send loop: stream every record from next on, waiting for new
	// acknowledgements when caught up.
	var scratch []byte
	for {
		p.mu.Lock()
		for !p.closed && !dead && next > p.head {
			p.cond.Wait()
		}
		switch {
		case p.closed:
			p.mu.Unlock()
			return ErrPublisherClosed
		case dead:
			p.mu.Unlock()
			return fmt.Errorf("repl: follower hung up")
		case next <= p.base:
			// Compaction overtook this session — the follower reads too
			// slowly for the retained window. End the session; on
			// resubscribe it gets a fresh snapshot.
			base := p.base
			p.mu.Unlock()
			return refuse(fmt.Sprintf("resume %d compacted away (history starts at %d): follower too slow, resubscribe for a snapshot", next, base+1))
		}
		batch := append([]wal.Commit(nil), p.records[next-p.base-1:]...)
		head := p.head
		p.mu.Unlock()

		for _, c := range batch {
			scratch = appendCommitMsg(scratch[:0], head)
			scratch = enc.AppendCommit(scratch, c)
			if err := f.writeFrame(scratch); err != nil {
				return err
			}
			if p.met != nil {
				p.met.ReplRecords.Add(1)
			}
			next = c.Seq + 1
		}
	}
}

// sendSnapshot streams the union of the pinned cell versions as the
// state at seq.
func (p *Publisher) sendSnapshot(f *framer, enc *wal.StreamEncoder, seq uint64, vers []*core.Relation) error {
	var ts []relation.Tuple
	for _, v := range vers {
		vts, err := v.All()
		if err != nil {
			return err
		}
		ts = append(ts, vts...)
	}
	if err := f.writeFrame(appendSnapBegin(nil, seq, uint64(len(ts)))); err != nil {
		return err
	}
	var scratch []byte
	for len(ts) > 0 {
		n := snapChunkTuples
		if n > len(ts) {
			n = len(ts)
		}
		scratch = append(scratch[:0], msgSnapChunk)
		scratch = enc.AppendChunk(scratch, ts[:n])
		if err := f.writeFrame(scratch); err != nil {
			return err
		}
		ts = ts[n:]
	}
	if err := f.writeFrame([]byte{msgSnapEnd}); err != nil {
		return err
	}
	if p.met != nil {
		p.met.ReplSnapshots.Add(1)
	}
	return nil
}

// Close detaches the publisher from the relation and terminates every
// session. The relation itself stays open and writable; only the
// shipping stops. Idempotent.
func (p *Publisher) Close() error {
	// Detach the sink before taking p.mu: a writer holding a cell mutex
	// may be blocked on p.mu inside onCommit, and SetCommitSink needs
	// the cell mutexes.
	p.d.SetCommitSink(nil)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := make([]io.Closer, 0, len(p.conns))
	for c := range p.conns {
		conns = append(conns, c)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// specColumns is the column signature carried in hello — name:type per
// column in declaration order, the same strings the durable manifest
// pins, so a subscription is refused exactly when durable.Open would
// refuse the directory.
func specColumns(spec *core.Spec) []string {
	cols := make([]string, len(spec.Columns))
	for i, c := range spec.Columns {
		cols[i] = c.Name + ":" + c.Type.String()
	}
	return cols
}

func eqStrings(a, b []string) bool {
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
