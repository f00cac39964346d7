// Package election is file/lease-based leader election for pmedicd
// replicas sharing a state directory. One lease file holds the current
// {holder, term, renewal time}; a replica that finds the lease expired
// acquires it with term+1, the holder renews it periodically, and everyone
// else follows. Read-modify-write of the lease is serialized through an
// flock(2)-held lock file, so the protocol is safe across processes on a
// shared filesystem and across goroutines inside one (flock follows the
// open file description, not the process).
//
// The term is the fencing token: it increases by at least one on every
// change of leadership, the medic folds it into its resume-epoch bump, and
// the epoch-derived OpenFlow generation IDs carry the fence to the wire —
// a deposed leader's in-flight pushes are refused by the switch agents,
// and its late WAL writes are refused by the store guard (Check).
//
// SIGKILL needs no cleanup: a dead leader simply stops renewing, its lease
// expires after TTL, and the next campaigner takes over. Graceful shutdown
// calls Resign to zero the lease so followers take over without waiting
// out the TTL.
package election

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

const (
	leaseFile = "leader.lease"
	lockFile  = ".lease.lock"
)

// ErrNotLeader reports a leadership check by a replica that does not hold
// a live lease.
var ErrNotLeader = errors.New("election: not the leader")

// Lease is the on-disk record of who leads and until when.
type Lease struct {
	Holder string `json:"holder"`
	// Term increases by at least one per change of leadership — the fencing
	// token.
	Term      uint64    `json:"term"`
	RenewedAt time.Time `json:"renewed_at"`
	// TTLMillis is the validity window after RenewedAt.
	TTLMillis int64 `json:"ttl_ms"`
}

// Expired reports whether the lease is past its validity window at now.
// An empty holder (a resigned lease) is always expired.
func (l Lease) Expired(now time.Time) bool {
	return l.Holder == "" || now.After(l.RenewedAt.Add(time.Duration(l.TTLMillis)*time.Millisecond))
}

// Config wires an Elector. Dir and ID are required.
type Config struct {
	// Dir is the shared state directory the lease lives in.
	Dir string
	// ID names this replica in the lease.
	ID string
	// TTL is the lease validity window (default 2s), a whole number of
	// milliseconds: the lease file's unit. A leader that cannot renew within
	// it is deposed; failover latency after SIGKILL is at most TTL + one
	// campaign interval. Replicas campaign and renew every TTL/3.
	TTL time.Duration
	// Seed decorrelates campaign jitter between replicas.
	Seed int64
	// OnElected fires on the campaign goroutine when this replica acquires
	// the lease; OnDeposed fires when it loses a lease it held.
	OnElected func(term uint64)
	OnDeposed func()
}

func (c Config) withDefaults() Config {
	if c.TTL == 0 {
		c.TTL = 2 * time.Second
	}
	return c
}

// Elector campaigns for and maintains the lease. Create with New, start
// with Start; Check and Term expose the replica's current view.
type Elector struct {
	cfg Config

	mu sync.Mutex
	// leader and term are this replica's local view; renewedAt is when the
	// view was last confirmed against the file, the basis of Check's
	// local-clock expiry.
	leader    bool
	term      uint64
	renewedAt time.Time

	startOnce sync.Once
	stopOnce  sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// New validates the wiring and returns an idle Elector.
func New(cfg Config) (*Elector, error) {
	if cfg.Dir == "" || cfg.ID == "" {
		return nil, errors.New("election: Dir and ID are required")
	}
	// The lease on disk must not expire before its holder's Check fails.
	if cfg.TTL < 0 || cfg.TTL%time.Millisecond != 0 {
		return nil, fmt.Errorf("election: TTL %v is not a whole, positive number of milliseconds", cfg.TTL)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("election: %w", err)
	}
	return &Elector{cfg: cfg.withDefaults(), done: make(chan struct{})}, nil
}

// Start launches the campaign loop.
func (e *Elector) Start() {
	e.startOnce.Do(func() {
		e.wg.Add(1)
		go e.campaignLoop()
	})
}

// Stop halts the campaign loop without touching the lease: a stopped
// leader's lease simply expires (the SIGKILL path). Call Resign first for
// a graceful handoff.
func (e *Elector) Stop() {
	e.stopOnce.Do(func() {
		close(e.done)
		e.wg.Wait()
	})
}

// Term returns the last term this replica observed.
func (e *Elector) Term() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.term
}

// Check is the leadership guard, cheap enough for a per-WAL-append call:
// nil iff this replica holds the lease and its last confirmed renewal is
// still inside TTL by the local clock. It never touches the filesystem, so
// a leader cut off from the lease file fails closed once TTL elapses.
func (e *Elector) Check() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.leader {
		return ErrNotLeader
	}
	if time.Since(e.renewedAt) > e.cfg.TTL {
		return fmt.Errorf("%w: lease renewal overdue", ErrNotLeader)
	}
	return nil
}

// Resign releases a held lease (graceful shutdown): the lease is zeroed at
// its current term so the next campaigner acquires immediately with
// term+1. A non-leader Resign is a no-op.
func (e *Elector) Resign() error {
	e.mu.Lock()
	wasLeader := e.leader
	e.leader = false
	e.mu.Unlock()
	if !wasLeader {
		return nil
	}
	return e.withLock(func() error {
		lease, err := e.readLease()
		if err != nil {
			return err
		}
		if lease.Holder != e.cfg.ID {
			return nil // already usurped
		}
		lease.Holder = ""
		lease.RenewedAt = time.Time{}
		return e.writeLease(lease)
	})
}

// Leader returns the lease as currently on disk — who leads, at what term.
// Followers use it for status reporting.
func Leader(dir string) (Lease, error) {
	raw, err := os.ReadFile(filepath.Join(dir, leaseFile))
	if errors.Is(err, os.ErrNotExist) {
		return Lease{}, nil
	}
	if err != nil {
		return Lease{}, fmt.Errorf("election: %w", err)
	}
	var l Lease
	if err := json.Unmarshal(raw, &l); err != nil {
		return Lease{}, fmt.Errorf("election: lease: %w", err)
	}
	return l, nil
}

func (e *Elector) campaignLoop() {
	defer e.wg.Done()
	rng := rand.New(rand.NewSource(e.cfg.Seed ^ int64(len(e.cfg.ID))*0x5DEECE66D))
	every := e.cfg.TTL / 3
	timer := time.NewTimer(time.Duration(rng.Int63n(int64(every) + 1)))
	defer timer.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-timer.C:
		}
		e.campaign()
		// Jitter up to a quarter interval so replicas with identical seeds
		// still decorrelate their file contention.
		timer.Reset(every + time.Duration(rng.Int63n(int64(every)/4+1)))
	}
}

// campaign runs one acquire-or-renew step and fires the transitions.
func (e *Elector) campaign() {
	var (
		elected bool
		deposed bool
		term    uint64
	)
	err := e.withLock(func() error {
		now := time.Now()
		lease, err := e.readLease()
		if err != nil {
			return err
		}
		e.mu.Lock()
		wasLeader := e.leader
		e.mu.Unlock()

		switch {
		case lease.Holder == e.cfg.ID && !lease.Expired(now):
			// Renew our own live lease.
			lease.RenewedAt = now
			if err := e.writeLease(lease); err != nil {
				return err
			}
			e.setView(true, lease.Term, now)
			return nil
		case lease.Expired(now):
			// Acquire: term+1 fences everything the previous holder signed.
			lease = Lease{
				Holder:    e.cfg.ID,
				Term:      lease.Term + 1,
				RenewedAt: now,
				TTLMillis: e.cfg.TTL.Milliseconds(),
			}
			if err := e.writeLease(lease); err != nil {
				return err
			}
			e.setView(true, lease.Term, now)
			elected, term = !wasLeader, lease.Term
			return nil
		default:
			// Someone else leads (or we expired and they took over).
			e.setView(false, lease.Term, now)
			deposed = wasLeader
			return nil
		}
	})
	if err != nil {
		// Filesystem trouble: fail closed. If we were leader, Check will
		// also depose us once TTL elapses without a renewal.
		e.mu.Lock()
		deposed = e.leader
		e.leader = false
		e.mu.Unlock()
	}
	if elected && e.cfg.OnElected != nil {
		e.cfg.OnElected(term)
	}
	if deposed && e.cfg.OnDeposed != nil {
		e.cfg.OnDeposed()
	}
}

func (e *Elector) setView(leader bool, term uint64, at time.Time) {
	e.mu.Lock()
	e.leader = leader
	e.term = term
	e.renewedAt = at
	e.mu.Unlock()
}

// withLock serializes a lease read-modify-write against every other
// replica, in-process or not, via flock on a sidecar lock file.
func (e *Elector) withLock(fn func() error) error {
	f, err := os.OpenFile(filepath.Join(e.cfg.Dir, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("election: %w", err)
	}
	defer func() { _ = f.Close() }()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("election: flock: %w", err)
	}
	defer func() { _ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN) }()
	return fn()
}

func (e *Elector) readLease() (Lease, error) {
	return Leader(e.cfg.Dir)
}

// writeLease persists the lease atomically (temp + rename) so readers
// never observe a torn lease.
func (e *Elector) writeLease(l Lease) error {
	raw, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("election: lease: %w", err)
	}
	tmp := filepath.Join(e.cfg.Dir, leaseFile+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("election: lease: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(e.cfg.Dir, leaseFile)); err != nil {
		return fmt.Errorf("election: lease: %w", err)
	}
	return nil
}
