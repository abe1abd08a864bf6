package repl

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/paperex"
)

// The WaitFor tests: a waiter sleeps on the follower's apply
// notification, so it must wake for a streamed record, for a snapshot
// bootstrap and for Close, and still time out when nothing comes.

// notYet is how long a test lets a waiter run before asserting that it
// is still blocked: long enough for it to reach its select, and a
// returned waiter fails the test at once.
const notYet = 20 * time.Millisecond

// waitAsync runs WaitFor in a goroutine and returns its result channel.
func waitAsync(f *Follower, seq uint64, timeout time.Duration) <-chan error {
	res := make(chan error, 1)
	go func() { res <- f.WaitFor(seq, timeout) }()
	return res
}

func assertBlocked(t *testing.T, res <-chan error) {
	t.Helper()
	select {
	case err := <-res:
		t.Fatalf("WaitFor returned %v before the follower reached its sequence", err)
	case <-time.After(notYet):
	}
}

func TestWaitForWokenByApply(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	var waiters []<-chan error
	for range 3 {
		waiters = append(waiters, waitAsync(f, 2, waitTimeout))
	}
	for _, w := range waiters {
		assertBlocked(t, w)
	}
	if err := d.Insert(paperex.SchedulerTuple(1, 1, paperex.StateS, 7)); err != nil {
		t.Fatal(err)
	}
	for _, w := range waiters {
		if err := <-w; err != nil {
			t.Fatal(err)
		}
	}
	// The record is visible once WaitFor has returned for it.
	if got := f.Len(); got != 1 {
		t.Fatalf("follower Len = %d after WaitFor(2), want 1", got)
	}
}

func TestWaitForWokenBySnapshot(t *testing.T) {
	d := openPrimary(t, 0)
	for pid := int64(1); pid <= 3; pid++ {
		if err := d.Insert(paperex.SchedulerTuple(1, pid, paperex.StateS, pid)); err != nil {
			t.Fatal(err)
		}
	}
	p := newTestPublisher(t, d, PublisherOptions{})
	// The follower's first dial waits for the gate, so nothing can be
	// applied before the waiter is blocked.
	gate := make(chan struct{})
	dial := InProcDialer(p)
	f := newTestFollower(t, schedSpec(), func() (io.ReadWriteCloser, error) {
		<-gate
		return dial()
	}, FollowerOptions{})
	w := waitAsync(f, 1, waitTimeout)
	assertBlocked(t, w)
	close(gate)
	if err := <-w; err != nil {
		t.Fatal(err)
	}
	if got := f.Len(); got != 3 {
		t.Fatalf("follower Len = %d after the bootstrap, want 3", got)
	}
}

func TestWaitForWokenByClose(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	w := waitAsync(f, 2, waitTimeout)
	assertBlocked(t, w)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-w:
		if !errors.Is(err, ErrFollowerClosed) {
			t.Fatalf("WaitFor on a closing follower = %v, want ErrFollowerClosed", err)
		}
	case <-time.After(waitTimeout):
		t.Fatal("Close did not wake the waiter")
	}
}

func TestWaitForTimeout(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := f.WaitFor(99, notYet)
	if err == nil || errors.Is(err, ErrFollowerClosed) || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("WaitFor past the head = %v, want a timeout", err)
	}
	if waited := time.Since(start); waited < notYet {
		t.Fatalf("WaitFor timed out after %v, before its %v timeout", waited, notYet)
	}
	// An already-reached sequence returns at once, whatever the timeout.
	if err := f.WaitFor(1, 0); err != nil {
		t.Fatal(err)
	}
}

// TestLagNeverWraps samples Lag from another goroutine while records
// stream in: the session raises the head it has seen before it advances
// applied, so the unsigned difference never wraps around.
func TestLagNeverWraps(t *testing.T) {
	d := openPrimary(t, 0)
	p := newTestPublisher(t, d, PublisherOptions{})
	f := newTestFollower(t, schedSpec(), InProcDialer(p), FollowerOptions{})
	if err := f.WaitFor(1, waitTimeout); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	maxLag := make(chan uint64, 1)
	go func() {
		var m uint64
		for {
			select {
			case <-stop:
				maxLag <- m
				return
			default:
			}
			m = max(m, f.Lag())
		}
	}()
	const writes = 300
	for pid := int64(1); pid <= writes; pid++ {
		if err := d.Insert(paperex.SchedulerTuple(1, pid, paperex.StateS, pid)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WaitFor(p.Head(), waitTimeout); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if m := <-maxLag; m > writes {
		t.Fatalf("Lag read %d with at most %d records outstanding", m, writes)
	}
}
