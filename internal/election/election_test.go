package election

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func waitCond(t *testing.T, what string, within time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s not reached within %v", what, within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newElector(t *testing.T, dir, id string, ttl time.Duration, elected, deposed *atomic.Uint64) *Elector {
	t.Helper()
	e, err := New(Config{
		Dir: dir, ID: id, TTL: ttl, Seed: int64(len(id)),
		OnElected: func(uint64) {
			if elected != nil {
				elected.Add(1)
			}
		},
		OnDeposed: func() {
			if deposed != nil {
				deposed.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

func TestSingleReplicaAcquiresAndRenews(t *testing.T) {
	dir := t.TempDir()
	var elected atomic.Uint64
	e := newElector(t, dir, "r1", 80*time.Millisecond, &elected, nil)
	e.Start()
	waitCond(t, "leadership", 2*time.Second, leading(e))
	if e.Term() != 1 {
		t.Fatalf("Term = %d, want 1", e.Term())
	}
	// Leadership survives several TTLs: renewals are happening.
	time.Sleep(300 * time.Millisecond)
	if e.Check() != nil {
		t.Fatal("leadership lost despite renewals")
	}
	if elected.Load() != 1 {
		t.Fatalf("OnElected fired %d times, want 1", elected.Load())
	}
	lease, err := Leader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Holder != "r1" || lease.Term != 1 {
		t.Fatalf("lease = %+v", lease)
	}
}

// TestFailoverAfterLeaderDies kills the leader the SIGKILL way — Stop
// without Resign — and expects the follower to take over with a strictly
// higher term once the lease expires.
func TestFailoverAfterLeaderDies(t *testing.T) {
	dir := t.TempDir()
	ttl := 100 * time.Millisecond
	var dep1 atomic.Uint64
	e1 := newElector(t, dir, "r1", ttl, nil, &dep1)
	e1.Start()
	waitCond(t, "r1 leadership", 2*time.Second, leading(e1))

	e2 := newElector(t, dir, "r2", ttl, nil, nil)
	e2.Start()
	time.Sleep(3 * ttl)
	if e2.Check() == nil {
		t.Fatal("r2 usurped a live lease")
	}

	e1.Stop() // SIGKILL: no resign, the lease just stops being renewed
	waitCond(t, "r2 takeover", 3*time.Second, leading(e2))
	if e2.Term() != 2 {
		t.Fatalf("takeover term = %d, want 2", e2.Term())
	}
	// The dead leader's local guard fails closed after TTL even though it
	// never saw the usurper.
	if err := e1.Check(); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("dead leader Check = %v, want ErrNotLeader", err)
	}
}

func TestResignHandsOverImmediately(t *testing.T) {
	dir := t.TempDir()
	ttl := 200 * time.Millisecond
	e1 := newElector(t, dir, "r1", ttl, nil, nil)
	e1.Start()
	waitCond(t, "r1 leadership", 2*time.Second, leading(e1))

	e2 := newElector(t, dir, "r2", ttl, nil, nil)
	e2.Start()

	if err := e1.Resign(); err != nil {
		t.Fatal(err)
	}
	if e1.Check() == nil {
		t.Fatal("still leader after Resign")
	}
	// Takeover needs only one campaign tick, not a TTL expiry.
	waitCond(t, "r2 takeover after resign", 2*time.Second, leading(e2))
	if e2.Term() != 2 {
		t.Fatalf("takeover term = %d, want 2", e2.Term())
	}
}

// TestTermsFenceAcrossHandoffs walks leadership r1 → r2 → r3 and asserts
// the term rises monotonically — the property the epoch fencing builds on.
func TestTermsFenceAcrossHandoffs(t *testing.T) {
	dir := t.TempDir()
	ttl := 100 * time.Millisecond
	var lastTerm uint64
	for i, id := range []string{"a", "b", "c"} {
		e := newElector(t, dir, id, ttl, nil, nil)
		e.Start()
		waitCond(t, id+" leadership", 3*time.Second, leading(e))
		if e.Term() != uint64(i+1) {
			t.Fatalf("%s term = %d, want %d", id, e.Term(), i+1)
		}
		if e.Term() <= lastTerm {
			t.Fatalf("term not monotone: %d after %d", e.Term(), lastTerm)
		}
		lastTerm = e.Term()
		e.Stop() // die without resigning
	}
}

func TestAtMostOneLeader(t *testing.T) {
	dir := t.TempDir()
	ttl := 80 * time.Millisecond
	es := make([]*Elector, 3)
	for i, id := range []string{"x", "y", "z"} {
		es[i] = newElector(t, dir, id, ttl, nil, nil)
		es[i].Start()
	}
	deadline := time.Now().Add(1 * time.Second)
	sawLeader := false
	for time.Now().Before(deadline) {
		n := 0
		for _, e := range es {
			if e.Check() == nil {
				n++
			}
		}
		if n > 1 {
			t.Fatalf("%d simultaneous leaders", n)
		}
		if n == 1 {
			sawLeader = true
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawLeader {
		t.Fatal("no leader ever elected")
	}
}

// leading reports whether e holds an unexpired lease, for waitCond.
func leading(e *Elector) func() bool {
	return func() bool { return e.Check() == nil }
}

// TestLeaseOnDiskOutlivesCheck: the lease file's millisecond TTL never ends
// before the holder's own TTL, which Check enforces — else other replicas
// could take over while the holder still acts as leader. A TTL the file
// cannot state is refused.
func TestLeaseOnDiskOutlivesCheck(t *testing.T) {
	for _, ttl := range []time.Duration{2 * time.Second, 1500 * time.Microsecond, 2 * time.Nanosecond} {
		dir := t.TempDir()
		e, err := New(Config{Dir: dir, ID: "a", TTL: ttl})
		if err != nil {
			if ttl%time.Millisecond == 0 {
				t.Errorf("TTL %v refused: %v", ttl, err)
			}
			continue
		}
		e.campaign()
		lease, err := Leader(dir)
		if err != nil {
			t.Fatal(err)
		}
		if lease.Holder != "a" || lease.Expired(lease.RenewedAt.Add(ttl)) {
			t.Errorf("TTL %v: lease on disk %+v is expired at RenewedAt + TTL", ttl, lease)
		}
	}
}
