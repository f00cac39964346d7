// Persistence: how a Medic's reconciled state survives the death of its
// process. Four WAL record kinds —
//
//	detect   one detector event folded into the failure set (apply)
//	outcome  the full reconciled core state after a reconcile pass
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
// committed on the reconcile-loop goroutine (Fence, before it starts,
// aside); a persistence failure degrades durability (counted, surfaced in
// Status) but never stops the loop — recovering the network outranks
// journaling it — with one exception: a reservation refused by the store's
// guard means another leader owns the store, and nothing is signed.
package medic

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pmedic/internal/store"
	"pmedic/internal/topo"
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

// outcomeRecord journals the absolute reconciled state after one pass.
type outcomeRecord struct {
	Epoch            uint64        `json:"epoch"`
	Failed           []int         `json:"failed"`
	PendingRecovered []int         `json:"pending_recovered,omitempty"`
	Unreachable      []topo.NodeID `json:"unreachable,omitempty"`
	Snap             snapshot      `json:"snap"`
}

// durableState is the snapshot payload and the result of a replay: the
// state a restarted daemon resumes from — the last outcome, the epoch
// reservation, and the event log.
type durableState struct {
	outcomeRecord
	// Reserved is the highest epoch the writer may have signed; absent from
	// state written before epochs were reserved, which signed nothing above
	// Epoch.
	Reserved   uint64     `json:"reserved,omitempty"`
	LogSeq     uint64     `json:"log_seq"`
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
	failed := make(map[int]bool, len(ds.Failed))
	for _, j := range ds.Failed {
		failed[j] = true
	}
	for i, rec := range recs {
		switch rec.Kind {
		case recDetect:
			var dr detectRecord
			if err := rec.DecodeInto(&dr); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", i, rec.Kind, err)
			}
			if dr.Epoch > ds.Epoch {
				ds.Epoch = dr.Epoch
			}
			for _, j := range dr.Failed {
				failed[j] = true
			}
			for _, j := range dr.Recovered {
				if failed[j] {
					delete(failed, j)
					ds.PendingRecovered = append(ds.PendingRecovered, j)
				}
			}
		case recOutcome:
			var or outcomeRecord
			if err := rec.DecodeInto(&or); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", i, rec.Kind, err)
			}
			if or.Epoch > ds.Epoch {
				ds.Epoch = or.Epoch
			}
			failed = make(map[int]bool, len(or.Failed))
			for _, j := range or.Failed {
				failed[j] = true
			}
			ds.PendingRecovered = append([]int(nil), or.PendingRecovered...)
			ds.Unreachable = append([]topo.NodeID(nil), or.Unreachable...)
			ds.Snap = or.Snap
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
			if e.Seq > ds.LogSeq {
				ds.LogSeq = e.Seq
			}
		default:
			// An unknown kind was written by a newer version; skipping it
			// beats refusing to start.
		}
	}
	ds.Failed = sortedKeys(failed)
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
// then lets the medic count on the reservation.
func (m *Medic) commit(through uint64) error {
	reserve := through > m.reserved.Load()
	if reserve {
		m.stage(recReserve, reserveRecord{Through: through})
	}
	start := time.Now()
	err := m.cfg.Store.Commit()
	m.metrics.walCommit.observe(time.Since(start))
	m.countPersist(err)
	if err == nil && reserve {
		m.reserved.Store(through)
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
	if m.cfg.Store == nil || epoch <= m.reserved.Load() {
		return nil
	}
	if err := m.commit(epoch + reserveBlock - 1); errors.Is(err, store.ErrGuarded) {
		return fmt.Errorf("reserving epoch %d: %w", epoch, err)
	}
	return nil
}

// commitPass ends a reconcile pass: the absolute reconciled state joins what
// the pass staged — converged or not, every pass leaves a durable footprint —
// and all of it is committed at once, topping the reservation up while it is
// free to.
func (m *Medic) commitPass() {
	if m.cfg.Store == nil {
		return
	}
	rec := m.outcomeLocked()
	m.stage(recOutcome, rec)
	var through uint64
	if m.reserved.Load() < rec.Epoch+reserveBlock/2 {
		through = rec.Epoch + reserveBlock
	}
	_ = m.commit(through) // counted; the next pass's outcome is absolute
}

// maybeCheckpoint folds the WAL into a fresh snapshot once the store's
// CompactEvery threshold (store.Options) is reached.
func (m *Medic) maybeCheckpoint() {
	if m.cfg.Store == nil || !m.cfg.Store.NeedsCheckpoint() {
		return
	}
	m.countPersist(m.cfg.Store.Checkpoint(m.durableLocked()))
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
	m.reserved.Store(m.Epoch())
	if err := m.cfg.Store.Checkpoint(m.durableLocked()); err != nil {
		return err
	}
	return m.cfg.Store.Sync()
}

// outcomeLocked snapshots the core state into an outcome record.
func (m *Medic) outcomeLocked() outcomeRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return outcomeRecord{
		Epoch:            m.epoch,
		Failed:           sortedKeys(m.failed),
		PendingRecovered: append([]int(nil), m.pendingRecovered...),
		Unreachable:      sortedKeys(m.unreachable),
		Snap:             m.snap,
	}
}

// durableLocked builds the full checkpoint payload: the outcome state, the
// reservation, and the event-log ring — everything a record still staged
// could add, which is why Checkpoint may drop those.
func (m *Medic) durableLocked() durableState {
	rec := m.outcomeLocked()
	seq, entries := m.log.state()
	return durableState{outcomeRecord: rec, Reserved: m.reserved.Load(), LogSeq: seq, LogEntries: entries}
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
		return newStatus(0, []int{}, nil, snapshot{Converged: true, Ideal: true}), nil
	}
	st := newStatus(ds.Epoch, ds.Failed, ds.Unreachable, ds.Snap)
	st.EpochReserved = ds.Reserved
	st.Events = ds.LogEntries
	if len(st.Events) > logSize {
		st.Events = st.Events[len(st.Events)-logSize:]
	}
	return st, nil
}

// countPersist folds one store-write result into the degraded-durability
// counter.
func (m *Medic) countPersist(err error) {
	if err == nil {
		return
	}
	m.mu.Lock()
	m.persistFailures++
	m.mu.Unlock()
}
