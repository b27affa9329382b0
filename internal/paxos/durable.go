package paxos

import (
	"encoding/json"
	"fmt"
	"time"

	"prever/internal/netsim"
	"prever/internal/wal"
)

// Durable-mode journal records. The acceptor state machine is the part
// that MUST survive a crash for safety: a promise or accept that was
// voted on but forgotten would let a recovered replica contradict
// itself. Chosen entries are journaled too so recovery replays the log
// locally and only learn-syncs the delta.
const (
	pxPromise = "p"
	pxAccept  = "a"
	pxChosen  = "c"
)

type pxRecord struct {
	K string `json:"k"`
	B Ballot `json:"b,omitempty"`
	S uint64 `json:"s,omitempty"`
	V []byte `json:"v,omitempty"`
}

// pxSnapshot is the full replica state at an applied floor; everything
// below the floor is captured by the application blob and pruned from
// the maps on restore.
type pxSnapshot struct {
	Format   string      `json:"format"`
	Promised Ballot      `json:"promised"`
	Applied  uint64      `json:"applied"`
	Chosen   []slotValue `json:"chosen,omitempty"`   // slots >= Applied (Ballot unused)
	Accepted []slotValue `json:"accepted,omitempty"` // slots >= Applied
	App      []byte      `json:"app,omitempty"`
}

const pxSnapFormat = "prever/paxos/snap/v1"

// DefaultSnapshotEvery is the applied-slot cadence between snapshots
// when DurableOptions leaves SnapshotEvery zero.
const DefaultSnapshotEvery = 256

// DurableOptions configure a crash-durable replica.
type DurableOptions struct {
	// Dir is the replica's private data directory (required).
	Dir string
	// App, when set, is snapshotted alongside the consensus state and
	// restored before the post-snapshot tail is re-applied. It should be
	// the same state machine the Applier mutates.
	App wal.Snapshotter
	// SnapshotEvery is the number of applied slots between snapshots
	// (and therefore the tail-compaction cadence). Zero means
	// DefaultSnapshotEvery.
	SnapshotEvery uint64
	// SegmentBytes overrides the WAL segment rotation threshold.
	SegmentBytes int64
	// NoSync disables fsync (tests/benches only).
	NoSync bool
}

// NewDurableReplica creates a replica whose acceptor and learner state
// survives crashes: promises, accepts, and chosen entries are journaled
// to a WAL in opts.Dir (fsynced before the corresponding vote or ack
// leaves the node), and the state is periodically snapshotted so the
// journal tail stays bounded. Opening an existing directory recovers:
// snapshot first, then the record tail, then the contiguous chosen
// prefix is re-applied through apply — after which a Sync() pulls only
// the delta from peers. If the network already knows id as a crashed
// node, the replica reattaches in place of its previous incarnation.
func NewDurableReplica(net *netsim.Network, id string, peers []string, apply Applier, opts DurableOptions) (*Replica, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("paxos: durable replica %s needs a data dir", id)
	}
	log, rec, err := wal.Open(opts.Dir, wal.Options{SegmentBytes: opts.SegmentBytes, NoSync: opts.NoSync})
	if err != nil {
		return nil, err
	}
	found := false
	for _, p := range peers {
		if p == id {
			found = true
		}
	}
	if !found {
		_ = log.Close()
		return nil, fmt.Errorf("paxos: peers must include self (%s)", id)
	}
	r := &Replica{
		id:       id,
		peers:    append([]string(nil), peers...),
		net:      net,
		apply:    apply,
		accepted: make(map[uint64]slotValue),
		votes:    make(map[uint64]map[string]bool),
		chosen:   make(map[uint64][]byte),
		waiters:  make(map[uint64]*slotWaiter),
	}
	if err := r.recoverFromDisk(rec, opts.App); err != nil {
		_ = log.Close()
		return nil, err
	}
	// Journaling turns on only after replay: re-journaling recovered
	// records would duplicate the tail on every restart.
	r.log = log
	r.logApp = opts.App
	r.snapEvery = opts.SnapshotEvery
	if r.snapEvery == 0 {
		r.snapEvery = DefaultSnapshotEvery
	}
	r.lastSnap = r.applied

	if err := net.Register(id, r.handle); err != nil {
		// The id exists from a previous incarnation of this replica;
		// reattach in its place.
		if rerr := net.Restart(id, r.handle); rerr != nil {
			_ = log.Close()
			return nil, fmt.Errorf("paxos: %v (and restart failed: %v)", err, rerr)
		}
	}
	return r, nil
}

// recoverFromDisk rebuilds replica state from a WAL recovery: snapshot
// floor, record replay, then contiguous apply. Runs before the replica
// is registered, so no locking is needed.
func (r *Replica) recoverFromDisk(rec *wal.Recovery, app wal.Snapshotter) error {
	if rec.Snapshot != nil {
		var snap pxSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return fmt.Errorf("paxos: decoding snapshot: %w", err)
		}
		if snap.Format != pxSnapFormat {
			return fmt.Errorf("paxos: unknown snapshot format %q", snap.Format)
		}
		r.promised = snap.Promised
		r.applied = snap.Applied
		r.chosenFloor = snap.Applied
		for _, sv := range snap.Chosen {
			r.chosen[sv.Slot] = sv.Value
		}
		for _, sv := range snap.Accepted {
			r.accepted[sv.Slot] = sv
		}
		if app != nil && snap.App != nil {
			if err := app.Restore(snap.App); err != nil {
				return fmt.Errorf("paxos: restoring application state: %w", err)
			}
		}
	}
	for _, raw := range rec.Records {
		var pr pxRecord
		if err := json.Unmarshal(raw, &pr); err != nil {
			// A record that passed the CRC but fails to decode is a bug,
			// not disk corruption; refuse to guess.
			return fmt.Errorf("paxos: decoding journal record: %w", err)
		}
		switch pr.K {
		case pxPromise:
			if r.promised.Less(pr.B) {
				r.promised = pr.B
			}
		case pxAccept:
			if r.promised.Less(pr.B) {
				r.promised = pr.B
			}
			r.accepted[pr.S] = slotValue{Slot: pr.S, Ballot: pr.B, Value: pr.V}
		case pxChosen:
			if _, done := r.chosen[pr.S]; !done {
				r.chosen[pr.S] = pr.V
			}
		}
	}
	if r.lastSeen.Less(r.promised) {
		r.lastSeen = r.promised
	}
	// Re-apply the contiguous chosen prefix above the snapshot floor.
	for {
		v, ok := r.chosen[r.applied]
		if !ok {
			break
		}
		if r.apply != nil {
			r.apply(r.applied, v)
		}
		r.applied++
	}
	return nil
}

// journalLocked appends one record and fsyncs. Callers hold r.mu. A
// false return means the record is NOT durable: the caller must not send
// the vote the record backs. In-memory replicas (r.log == nil) always
// succeed.
func (r *Replica) journalLocked(rec pxRecord) bool {
	if r.log == nil {
		return true
	}
	if r.walFailed {
		return rec.K == pxChosen // see onLearn: chosen may proceed in memory
	}
	if err := r.log.AppendSync(mustJSON(rec)); err != nil {
		r.walFailed = true
		return rec.K == pxChosen
	}
	return true
}

// maybeSnapshotLocked captures replica + application state and
// compacts the journal tail once snapEvery slots have been applied since
// the last snapshot. Called with applyMu and mu held: the applier is
// quiescent, so the application blob is consistent with the applied
// floor.
func (r *Replica) maybeSnapshotLocked() {
	if r.log == nil || r.walFailed || r.applied-r.lastSnap < r.snapEvery {
		return
	}
	snap := pxSnapshot{
		Format:   pxSnapFormat,
		Promised: r.promised,
		Applied:  r.applied,
	}
	for slot, v := range r.chosen {
		if slot >= r.applied {
			snap.Chosen = append(snap.Chosen, slotValue{Slot: slot, Value: v})
		}
	}
	for slot, sv := range r.accepted {
		if slot >= r.applied {
			snap.Accepted = append(snap.Accepted, sv)
		}
	}
	// mu stays held across the write: a record journaled concurrently
	// would land in a segment the snapshot is about to declare
	// superseded, silently un-voting this acceptor.
	if r.logApp != nil {
		blob, err := r.logApp.Snapshot()
		if err != nil {
			return // keep journaling; the tail still covers everything
		}
		snap.App = blob
	}
	if err := r.log.Snapshot(mustJSON(snap)); err != nil {
		r.walFailed = true
		return
	}
	r.lastSnap = snap.Applied
}

// adoptImage jumps this replica to a peer's applied floor when per-slot
// catch-up is impossible: the peer compacted away the chosen prefix this
// replica still needs, so the application state is restored wholesale
// from the offered image and the journal is re-based on it. Paxos is
// crash-fault — peers don't lie — so a single sender's image is
// trusted; it is journaled as this replica's own snapshot before any
// further progress builds on it.
func (r *Replica) adoptImage(img *pxImage) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	if r.logApp == nil || img.Applied <= r.applied {
		r.mu.Unlock()
		return
	}
	if err := r.logApp.Restore(img.App); err != nil {
		r.mu.Unlock()
		return // keep the coherent state we have
	}
	r.applied = img.Applied
	r.chosenFloor = img.Applied
	if r.nextSlot < r.applied {
		r.nextSlot = r.applied
	}
	for slot := range r.chosen {
		if slot < r.applied {
			delete(r.chosen, slot)
		}
	}
	for slot := range r.accepted {
		if slot < r.applied {
			delete(r.accepted, slot)
		}
	}
	for slot := range r.votes {
		if slot < r.applied {
			delete(r.votes, slot)
		}
	}
	// Waiters parked below the new floor can't learn their slot's value
	// anymore; wake them lost so callers retry (the application layer
	// dedups by transaction identity).
	for slot, w := range r.waiters {
		if slot < r.applied {
			delete(r.waiters, slot)
			w.finish(true)
		}
	}
	if r.log != nil && !r.walFailed {
		// Journal the adoption as this replica's own snapshot; the
		// retained chosen/accepted tails ride along so restart replays
		// them on top of the image.
		snap := pxSnapshot{
			Format:   pxSnapFormat,
			Promised: r.promised,
			Applied:  img.Applied,
			App:      img.App,
		}
		for slot, v := range r.chosen {
			snap.Chosen = append(snap.Chosen, slotValue{Slot: slot, Value: v})
		}
		for _, sv := range r.accepted {
			snap.Accepted = append(snap.Accepted, sv)
		}
		if err := r.log.Snapshot(mustJSON(snap)); err != nil {
			r.walFailed = true
		} else {
			r.lastSnap = snap.Applied
		}
	}
	// Retained chosen entries contiguous above the image become
	// applicable the moment the floor jumps; apply them now (outside mu,
	// applyMu still held) exactly as onLearn would.
	var toApply []applyItem
	for next := r.applied; ; next++ {
		v, ok := r.chosen[next]
		if !ok {
			break
		}
		toApply = append(toApply, applyItem{next, v})
	}
	r.mu.Unlock()
	r.applyChosen(toApply)
}

// CloseStorage syncs and closes the WAL. The replica keeps running in
// memory but refuses further votes (its promises can no longer be made
// durable); intended for tests tearing down a durable replica before
// re-opening its directory, and for server shutdown.
func (r *Replica) CloseStorage() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	err := r.log.Close()
	r.walFailed = true
	return err
}

// WaitApplied blocks until the replica has applied at least n contiguous
// slots, polling; a convergence helper for recovery tests.
func (r *Replica) WaitApplied(n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if r.Applied() >= n {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("paxos: %s applied %d < %d after %s", r.id, r.Applied(), n, timeout)
}
