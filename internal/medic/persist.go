// Persistence: how a Medic's reconciled state survives the death of its
// process. Three WAL record kinds cover the loop's durability points —
//
//	detect   one detector event folded into the failure set (apply)
//	outcome  the full reconciled core state after a reconcile pass
//	log      one structured event-log entry
//
// Outcome records carry absolute state, not deltas, so replaying
// WAL-over-snapshot is idempotent: the last outcome wins, detect records
// after it only advance the epoch and failure set for events the dead
// process applied but never finished reconciling. All appends happen on
// the reconcile-loop goroutine; a persistence failure degrades durability
// (counted, surfaced in Status) but never stops the loop — recovering the
// network outranks journaling it.
package medic

import (
	"encoding/json"
	"fmt"

	"pmedic/internal/monitor"
	"pmedic/internal/store"
	"pmedic/internal/topo"
)

// WAL record kinds (store.Record.Kind).
const (
	recDetect  = "detect"
	recOutcome = "outcome"
	recLog     = "log"
)

// detectRecord journals one applied detector event.
type detectRecord struct {
	Epoch     uint64 `json:"epoch"`
	Failed    []int  `json:"failed,omitempty"`
	Recovered []int  `json:"recovered,omitempty"`
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
// state a restarted daemon resumes from — the last outcome plus the event
// log.
type durableState struct {
	outcomeRecord
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

// persistDetect journals one applied detector event.
func (m *Medic) persistDetect(epoch uint64, ev monitor.Event) {
	if m.cfg.Store == nil {
		return
	}
	rec := detectRecord{Epoch: epoch, Failed: ev.Failed, Recovered: ev.Recovered}
	m.countPersist(m.cfg.Store.Append(recDetect, rec))
}

// persistOutcome journals the absolute reconciled state; reconcile defers
// it so every pass — converged or not — leaves a durable footprint.
func (m *Medic) persistOutcome() {
	if m.cfg.Store == nil {
		return
	}
	rec := m.outcomeLocked()
	m.countPersist(m.cfg.Store.Append(recOutcome, rec))
}

// persistLogEntry is the eventLog's onAppend hook. It must never log its
// own failure — that would recurse straight back here — so a failed append
// only bumps the counter.
func (m *Medic) persistLogEntry(e LogEntry) {
	if m.cfg.Store == nil {
		return
	}
	m.countPersist(m.cfg.Store.Append(recLog, e))
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
// nothing.
func (m *Medic) FlushState() error {
	if m.cfg.Store == nil {
		return nil
	}
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

// durableLocked builds the full checkpoint payload: the outcome state plus
// the event-log ring.
func (m *Medic) durableLocked() durableState {
	rec := m.outcomeLocked()
	seq, entries := m.log.state()
	return durableState{outcomeRecord: rec, LogSeq: seq, LogEntries: entries}
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
