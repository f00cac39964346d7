// Persistence: how a Medic's reconciled state survives the death of its
// process, as snapshot+WAL in a store.Store. Four WAL record kinds —
//
//	detect   one detector event folded into the failure set (apply)
//	outcome  the state a reconcile pass published as it ended
//	log      one structured event-log entry
//	reserve  the highest epoch this medic may sign
//
// A pass stages its records in memory and commits them as one group after its
// last log entry, so a crash loses whole passes, never half of one, and
// nothing on the way from a detector event to the push waits for the disk. A
// pass lost whole is re-detected by the successor, whose detector starts from
// the journalled failure set; a journalled failure set no pass converged on —
// the pass failed, or was lost after a reservation committed its detect
// records — is re-planned by the successor before it reads any event. Either
// way at a higher epoch: it resumes above max(epoch, reserved), and the
// reserve record, made durable in blocks off the recovery path, bounds every
// epoch this medic signs.
// Outcome records carry absolute state, so replay is idempotent. A failed
// store write degrades durability (counted, surfaced in Status) and never
// stops the loop, with one exception: a reservation the store's guard refuses
// means another leader owns the store, and nothing is signed.
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
		var err error
		switch rec.Kind {
		case recDetect:
			var dr detectRecord
			err = rec.DecodeInto(&dr)
			ds.Epoch = max(ds.Epoch, dr.Epoch)
			ds.detect(dr.Failed, dr.Recovered)
		case recOutcome:
			// An outcome replaces what came before, except what only grows.
			var out state
			err = rec.DecodeInto(&out)
			out.Epoch = max(out.Epoch, ds.Epoch)
			out.Reserved = max(out.Reserved, ds.Reserved)
			out.LogSeq = max(out.LogSeq, ds.LogSeq)
			ds.state = out
		case recReserve:
			var rr reserveRecord
			err = rec.DecodeInto(&rr)
			ds.Reserved = max(ds.Reserved, rr.Through)
		case recLog:
			var e LogEntry
			err = rec.DecodeInto(&e)
			ds.LogEntries = append(ds.LogEntries, e)
			ds.LogSeq = max(ds.LogSeq, e.Seq)
		default:
			// Written by a newer version: skipping it beats refusing to start.
		}
		if err != nil {
			return nil, fmt.Errorf("record %d (%s): %w", i, rec.Kind, err)
		}
	}
	if ds.Failed == nil {
		ds.Failed = []int{}
	}
	return ds, nil
}

// stage buffers one record for the next commit. The event log's hook comes
// through here, so a failure is counted, never logged (that would recurse).
func (m *Medic) stage(kind string, v any) {
	if m.cfg.Store != nil {
		m.countPersist(m.cfg.Store.Stage(kind, v))
	}
}

// commit makes everything staged durable in one group — with a reservation
// through the given epoch in it, if that is beyond the one held — and only
// then counts on the reservation, and publishes it. It runs where the state
// is as published: outside a pass, at its head, and in its tail.
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
// returns nil once the epoch lies inside the durable reservation, committing a
// fresh block on the spot past it. A guard refusal (store.ErrGuarded: the
// lease is gone) means the epoch must not be signed. Any other failure is a
// disk fault under a lease that still holds, with no successor to collide
// with: it is counted, and recovering the network goes ahead.
func (m *Medic) ensureReserved(epoch uint64) error {
	if m.cfg.Store == nil || epoch <= m.cur.Reserved {
		return nil
	}
	if err := m.commit(epoch + reserveBlock - 1); errors.Is(err, store.ErrGuarded) {
		return fmt.Errorf("reserving epoch %d: %w", epoch, err)
	}
	return nil
}

// commitPass ends a reconcile pass: the state it published joins what it
// staged, converged or not, and all of it is committed at once, topping the
// reservation up while that is free.
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

// maybeCheckpoint folds the WAL into a fresh snapshot at the store's
// CompactEvery threshold.
func (m *Medic) maybeCheckpoint() {
	if m.cfg.Store == nil || !m.cfg.Store.NeedsCheckpoint() {
		return
	}
	m.countPersist(m.cfg.Store.Checkpoint(m.durable()))
}

// FlushState checkpoints the full durable state — the graceful-shutdown path,
// called after Stop. The WAL folds into the snapshot, and the unused rest of
// the reservation is given back: a clean restart replays nothing and resumes
// at the next epoch; only a crash skips a block.
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

// durable is the full checkpoint payload, the published state and the event
// log: everything a staged record could add, so Checkpoint may drop those.
func (m *Medic) durable() durableState {
	return durableState{state: *m.pub.Load(), LogEntries: m.log.snapshot()}
}

// ReadStatus renders the durable state in dir, read-only — what a restarted
// leader would resume from — as a Status: follower replicas tail the leader's
// store with it. An empty directory reads as the ideal steady state.
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
