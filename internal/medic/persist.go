// Persistence: how a Medic's reconciled state survives the death of its
// process. Four WAL record kinds —
//
//	detect   one detector event folded into the failure set (apply)
//	outcome  the state a reconcile pass published as it ended
//	log      one structured event-log entry
//	reserve  the highest epoch this medic may sign
//
// Durability belongs to a reconcile pass, not to a record: the pass stages
// its records in memory and commits them as one group after its last log
// entry, so a crash loses whole passes, never half of one, and nothing on the
// way from a detector event to the push waits for the disk. A pass lost that
// way is one the network may already have seen pushed; that is safe because
// the successor's detector is handed only the durable failure set (MarkDown),
// re-detects what the lost pass knew, and plans it again at a higher epoch.
//
// The one thing a record had to be durable ahead of the push for — a successor
// must resume above every epoch its predecessor signed — is kept by the
// reserve record: a block of reserveBlock epochs is made durable off the
// recovery path (Fence, the loop's start, and the commit of any pass that
// leaves less than half a block), the medic signs no epoch above it
// (ensureReserved, which commits a fresh block on the spot in the one case it
// ran out), and a successor resumes above max(epoch, reserved).
//
// Outcome records carry absolute state, not deltas, so replaying
// WAL-over-snapshot is idempotent: the last outcome wins, detect records
// after it only advance the epoch and failure set for events the dead
// process committed but never finished reconciling. Everything is staged and
// committed by whoever owns the state at the time (the reconcile loop, Fence
// before it starts, FlushState after it has stopped); a persistence failure
// degrades durability (counted, surfaced in Status) but never stops the loop
// — recovering the network outranks journaling it — with one exception: a
// reservation refused by the store's guard means another leader owns the
// store, and nothing is signed.
package medic

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pmedic/internal/store"
)

// WAL record kinds (store.Record.Kind).
const (
	recDetect  = "detect"
	recOutcome = "outcome"
	recLog     = "log"
	recReserve = "reserve"
)

// reserveBlock is how many epochs one reservation covers: what a crash can
// make the next incarnation skip, and how many passes can go by between two
// reservations. Generation IDs have room for 2^44 epochs.
const reserveBlock = 64

// detectRecord journals one applied detector event.
type detectRecord struct {
	Epoch     uint64 `json:"epoch"`
	Failed    []int  `json:"failed,omitempty"`
	Recovered []int  `json:"recovered,omitempty"`
}

// reserveRecord journals an epoch reservation: every epoch up to Through may
// have been signed by the time anyone reads this.
type reserveRecord struct {
	Through uint64 `json:"through"`
}

// durableState is the snapshot payload and the result of a replay: the state a
// restarted daemon resumes from, and the event log beside it.
type durableState struct {
	state
	LogEntries []LogEntry `json:"log_entries,omitempty"`
}

// replayDurable folds a snapshot payload and the WAL records over it into
// the resumable state. A nil result means the directory was empty — a
// first boot, not a resume.
func replayDurable(snap []byte, recs []store.Record) (*durableState, error) {
	if len(snap) == 0 && len(recs) == 0 {
		return nil, nil
	}
	ds := &durableState{}
	if len(snap) > 0 {
		if err := json.Unmarshal(snap, ds); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	for i, rec := range recs {
		switch rec.Kind {
		case recDetect:
			var dr detectRecord
			if err := rec.DecodeInto(&dr); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", i, rec.Kind, err)
			}
			ds.Epoch = max(ds.Epoch, dr.Epoch)
			ds.detect(dr.Failed, dr.Recovered)
		case recOutcome:
			var out state
			if err := rec.DecodeInto(&out); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", i, rec.Kind, err)
			}
			// An outcome replaces what came before, except what only grows.
			out.Epoch = max(out.Epoch, ds.Epoch)
			out.Reserved = max(out.Reserved, ds.Reserved)
			out.LogSeq = max(out.LogSeq, ds.LogSeq)
			ds.state = out
		case recReserve:
			var rr reserveRecord
			if err := rec.DecodeInto(&rr); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", i, rec.Kind, err)
			}
			ds.Reserved = max(ds.Reserved, rr.Through)
		case recLog:
			var e LogEntry
			if err := rec.DecodeInto(&e); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", i, rec.Kind, err)
			}
			ds.LogEntries = append(ds.LogEntries, e)
			ds.LogSeq = max(ds.LogSeq, e.Seq)
		default:
			// An unknown kind was written by a newer version; skipping it
			// beats refusing to start.
		}
	}
	if ds.Failed == nil {
		ds.Failed = []int{}
	}
	return ds, nil
}

// stage buffers one record for the next commit. The event log's hook comes
// through here, so it must never log its own failure — that would recurse
// straight back — and only bumps the counter.
func (m *Medic) stage(kind string, v any) {
	if m.cfg.Store != nil {
		m.countPersist(m.cfg.Store.Stage(kind, v))
	}
}

// commit makes everything staged durable in one group — with a reservation
// through the given epoch in it, if that is beyond the one held — and only
// then lets the medic count on the reservation, and publishes it. It runs
// where the state is otherwise as published: outside a pass, at the head of one
// (nothing has touched the state since apply), and in its tail (after
// reconcile published).
func (m *Medic) commit(through uint64) error {
	reserve := through > m.cur.Reserved
	if reserve {
		m.stage(recReserve, reserveRecord{Through: through})
	}
	start := time.Now()
	err := m.cfg.Store.Commit()
	m.metrics.walCommit.observe(time.Since(start))
	m.countPersist(err)
	if err == nil && reserve {
		m.cur.Reserved = through
		m.publish()
	}
	return err
}

// ensureReserved stands in front of everything that signs with an epoch: it
// returns nil once the epoch lies inside the durable reservation. Inside the
// block that is a comparison — a medic whose store started refusing writes
// keeps recovering there, and is refused on the wire by its successor's fence.
// Past the block it commits a fresh one on the spot. If the guard refuses that
// (store.ErrGuarded: the lease is gone) the epoch must not be signed. Any
// other failure is a disk fault under a lease that still holds, where no
// successor exists to collide with: it is counted, and recovering the network
// goes ahead.
func (m *Medic) ensureReserved(epoch uint64) error {
	if m.cfg.Store == nil || epoch <= m.cur.Reserved {
		return nil
	}
	if err := m.commit(epoch + reserveBlock - 1); errors.Is(err, store.ErrGuarded) {
		return fmt.Errorf("reserving epoch %d: %w", epoch, err)
	}
	return nil
}

// commitPass ends a reconcile pass: the state it just published joins what the
// pass staged — converged or not, every pass leaves a durable footprint — and
// all of it is committed at once, topping the reservation up while it is free
// to.
func (m *Medic) commitPass() {
	if m.cfg.Store == nil {
		return
	}
	out := m.pub.Load()
	m.stage(recOutcome, out)
	var through uint64
	if out.Reserved < out.Epoch+reserveBlock/2 {
		through = out.Epoch + reserveBlock
	}
	_ = m.commit(through) // counted; the next pass's outcome is absolute
}

// maybeCheckpoint folds the WAL into a fresh snapshot once the store's
// CompactEvery threshold (store.Options) is reached.
func (m *Medic) maybeCheckpoint() {
	if m.cfg.Store == nil || !m.cfg.Store.NeedsCheckpoint() {
		return
	}
	m.countPersist(m.cfg.Store.Checkpoint(m.durable()))
}

// FlushState checkpoints the full durable state unconditionally — the
// graceful-shutdown path, called after Stop so no reconcile is in flight.
// The WAL folds into the snapshot and truncates; a clean restart replays
// nothing. Nothing can be signed any more, so the checkpoint gives the unused
// rest of the reservation back: a clean restart resumes at the next epoch,
// and only a crash skips a block.
func (m *Medic) FlushState() error {
	if m.cfg.Store == nil {
		return nil
	}
	m.cur.Reserved = m.cur.Epoch
	m.publish()
	if err := m.cfg.Store.Checkpoint(m.durable()); err != nil {
		return err
	}
	return m.cfg.Store.Sync()
}

// durable is the full checkpoint payload: the published state and the
// event-log ring — everything a record still staged could add, which is why
// Checkpoint may drop those. Its callers own the state, so the ring holds
// nothing newer than the state's log position.
func (m *Medic) durable() durableState {
	return durableState{state: *m.pub.Load(), LogEntries: m.log.snapshot()}
}

// ReadStatus loads the durable state in dir read-only — snapshot plus WAL,
// exactly what a restarted leader would resume from — and renders it as a
// Status. Follower replicas tail the leader's store with it: no lease, no
// reconcile loop, just the shared directory. An empty directory reads as
// the ideal steady state.
func ReadStatus(dir string) (Status, error) {
	snap, recs, err := store.ReadState(dir)
	if err != nil {
		return Status{}, err
	}
	ds, err := replayDurable(snap, recs)
	if err != nil {
		return Status{}, err
	}
	if ds == nil {
		ds = &durableState{state: idleState()}
	}
	return ds.status(ds.LogEntries), nil
}

// countPersist folds one store-write result into the degraded-durability
// counter.
func (m *Medic) countPersist(err error) {
	if err != nil {
		m.persistFailures.Add(1)
	}
}
