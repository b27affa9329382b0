// Package paxos implements Multi-Paxos over the simulated network: a
// crash-fault-tolerant replicated log with a stable leader, phase-1 leader
// election (prepare/promise with accepted-value recovery), and phase-2
// slot replication (accept/accepted/learn).
//
// The paper prescribes Paxos as one of the two standard fault-tolerant
// baselines ("distributed solutions should be compared in terms of
// throughput and latency with standard distributed fault-tolerant
// protocols, e.g., Paxos and PBFT"); experiment E4 uses this package as
// the non-Byzantine baseline against PBFT and the sharded chain.
package paxos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"prever/internal/netsim"
	"prever/internal/wal"
)

// ErrSlotLost reports that the slot a Propose call was waiting on was
// chosen with a different value (a leader turnover re-proposed or no-op
// filled the slot). The caller's value was NOT committed in that slot and
// may be retried safely.
var ErrSlotLost = errors.New("paxos: slot lost to a competing proposal")

// Ballot orders leadership claims: higher N wins, ties broken by ID.
type Ballot struct {
	N  uint64 `json:"n"`
	ID string `json:"id"`
}

// Less reports whether b orders before o.
func (b Ballot) Less(o Ballot) bool {
	if b.N != o.N {
		return b.N < o.N
	}
	return b.ID < o.ID
}

// Message type tags on the wire.
const (
	msgPrepare  = "paxos/prepare"
	msgPromise  = "paxos/promise"
	msgAccept   = "paxos/accept"
	msgAccepted = "paxos/accepted"
	msgLearn    = "paxos/learn"
	msgSyncReq  = "paxos/syncreq"
	msgSyncRep  = "paxos/syncrep"
)

type slotValue struct {
	Slot   uint64 `json:"slot"`
	Ballot Ballot `json:"ballot"`
	Value  []byte `json:"value"`
}

type prepareMsg struct {
	Ballot Ballot `json:"ballot"`
}

type promiseMsg struct {
	Ballot   Ballot      `json:"ballot"`
	Accepted []slotValue `json:"accepted,omitempty"`
	// Applied is the acceptor's contiguous-applied floor: every slot
	// below it is chosen cluster-wide. Durable acceptors prune accepted
	// entries below their snapshot floor, so the classical "no promise
	// reported an accept, therefore nothing was chosen" inference is only
	// valid at or above the quorum's highest Applied — the new leader
	// must treat slots below it as chosen-elsewhere, never as free.
	Applied uint64 `json:"applied,omitempty"`
}

type acceptMsg struct {
	Ballot Ballot `json:"ballot"`
	Slot   uint64 `json:"slot"`
	Value  []byte `json:"value"`
}

type acceptedMsg struct {
	Ballot Ballot `json:"ballot"`
	Slot   uint64 `json:"slot"`
}

type learnMsg struct {
	Slot  uint64 `json:"slot"`
	Value []byte `json:"value"`
}

// syncReqMsg asks peers for chosen values from slot From upward (learner
// anti-entropy; sent on restart and on demand via Sync).
type syncReqMsg struct {
	From uint64 `json:"from"`
}

type syncRepMsg struct {
	Entries []learnMsg `json:"entries,omitempty"`
	// Snap carries a full state image when the requester's floor is below
	// the slots this peer still retains (compaction discarded the prefix
	// the requester needs); see onSyncReq.
	Snap *pxImage `json:"snap,omitempty"`
}

// pxImage is a checkpoint offered over sync when per-slot catch-up is
// impossible: the application state as of a contiguous-applied floor.
type pxImage struct {
	Applied uint64 `json:"applied"`
	App     []byte `json:"app,omitempty"`
}

// Applier is called with each chosen value, in slot order, exactly once
// per replica. A nil/empty value is a no-op filler chosen during leader
// failover to close a log gap; appliers should treat it as a skip.
type Applier func(slot uint64, value []byte)

// slotWaiter parks a Propose call until its slot is chosen. lost is set
// before done closes (and read only after), so the waiter learns whether
// the chosen value was actually its own.
type slotWaiter struct {
	value []byte
	done  chan struct{}
	lost  bool
}

// finish wakes the parked proposer: lost is published before done
// closes. Every path that removes a waiter from r.waiters funnels
// through here after the removal, so done has exactly one close site
// and the map is the mutual-exclusion token against a double close.
func (w *slotWaiter) finish(lost bool) {
	w.lost = lost
	close(w.done)
}

// Replica is one Paxos node: acceptor + learner, and optionally the
// leader/proposer.
type Replica struct {
	id    string
	peers []string // all replica ids including self
	net   *netsim.Network
	apply Applier

	// applyMu serializes the chosen-prefix handoff to the Applier. It is
	// acquired BEFORE mu in onLearn: two goroutines (the netsim handler
	// and a proposer inside onAccepted) can both reach onLearn, and
	// without this outer lock their contiguous-apply batches could
	// interleave out of slot order after mu is released.
	applyMu sync.Mutex

	mu sync.Mutex
	// Acceptor state.
	promised Ballot
	accepted map[uint64]slotValue
	// Leader state.
	leading   bool
	ballot    Ballot
	nextSlot  uint64
	promises  map[string]promiseMsg
	promiseCh chan struct{}
	votes     map[uint64]map[string]bool
	// Learner state.
	chosen   map[uint64][]byte
	applied  uint64
	waiters  map[uint64]*slotWaiter
	lastSeen Ballot // highest ballot observed anywhere (for election)
	// chosenFloor is the lowest slot the chosen map is guaranteed to
	// cover: snapshot restore (and image adoption) prune everything
	// below it, so sync requests from further back need a state image
	// rather than per-slot entries. Zero for in-memory replicas.
	chosenFloor uint64

	// Durability (nil log == in-memory mode; see durable.go). walFailed
	// is sticky: once a journal write fails the replica refuses to vote
	// (an acceptor whose promises aren't durable is unsafe to count) but
	// keeps learning in memory.
	log       *wal.Log
	logApp    wal.Snapshotter
	snapEvery uint64
	lastSnap  uint64 // applied floor at the last snapshot (applyMu)
	walFailed bool
}

// NewReplica creates and registers a replica on the network. peers must
// include the replica's own id. apply may be nil.
func NewReplica(net *netsim.Network, id string, peers []string, apply Applier) (*Replica, error) {
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
	found := false
	for _, p := range peers {
		if p == id {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("paxos: peers must include self (%s)", id)
	}
	if err := net.Register(id, r.handle); err != nil {
		return nil, err
	}
	return r, nil
}

// ID returns the replica id.
func (r *Replica) ID() string { return r.id }

// quorum is the majority size.
func (r *Replica) quorum() int { return len(r.peers)/2 + 1 }

// BecomeLeader runs phase 1: it picks a ballot above anything seen,
// collects a majority of promises, re-proposes any previously accepted
// values, and switches to steady-state leadership. Blocks up to timeout.
func (r *Replica) BecomeLeader(timeout time.Duration) error {
	r.mu.Lock()
	n := r.lastSeen.N + 1
	r.ballot = Ballot{N: n, ID: r.id}
	r.lastSeen = r.ballot
	r.promises = map[string]promiseMsg{}
	r.promiseCh = make(chan struct{}, len(r.peers))
	// Self-promise. Durable mode journals it before it is counted: a
	// promise that wouldn't survive a crash must not join the quorum.
	if r.promised.Less(r.ballot) {
		r.promised = r.ballot
		if !r.journalLocked(pxRecord{K: pxPromise, B: r.ballot}) {
			r.mu.Unlock()
			return errors.New("paxos: journaling self-promise failed")
		}
	}
	r.promises[r.id] = promiseMsg{Ballot: r.ballot, Accepted: r.acceptedListLocked(), Applied: r.applied}
	ballot := r.ballot
	r.mu.Unlock()

	r.broadcast(msgPrepare, prepareMsg{Ballot: ballot})

	deadlineTmr := time.NewTimer(timeout)
	defer deadlineTmr.Stop()
	deadline := deadlineTmr.C
	for {
		r.mu.Lock()
		if len(r.promises) >= r.quorum() {
			// Adopt the highest-ballot accepted value per slot and
			// re-propose under the new ballot.
			adopt := map[uint64]slotValue{}
			maxSlot := uint64(0)
			// floor: the quorum's highest contiguous-applied slot. Every
			// slot below it is already chosen cluster-wide, but durable
			// acceptors prune accepted entries below their snapshot
			// floors — so for those slots the promise quorum's silence
			// (or a stale lower-ballot leftover) proves nothing. The
			// leader must neither re-propose nor no-op fill below floor;
			// it learn-syncs those values instead.
			floor := r.applied
			for _, p := range r.promises {
				for _, sv := range p.Accepted {
					cur, ok := adopt[sv.Slot]
					if !ok || cur.Ballot.Less(sv.Ballot) {
						adopt[sv.Slot] = sv
					}
					if sv.Slot+1 > maxSlot {
						maxSlot = sv.Slot + 1
					}
				}
				if p.Applied > floor {
					floor = p.Applied
				}
			}
			if maxSlot > r.nextSlot {
				r.nextSlot = maxSlot
			}
			// New proposals must land above every already-chosen slot,
			// even when the accepts that chose them have been pruned.
			if floor > r.nextSlot {
				r.nextSlot = floor
			}
			r.leading = true
			reproposals := make([]acceptMsg, 0, len(adopt))
			for slot, sv := range adopt {
				if slot < floor {
					continue // chosen elsewhere; sync, don't re-propose
				}
				if _, done := r.chosen[slot]; done {
					continue
				}
				reproposals = append(reproposals, acceptMsg{Ballot: r.ballot, Slot: slot, Value: sv.Value})
			}
			// No-op fill: a slot in [floor, nextSlot) with no adopted
			// value and no chosen value was never accepted by anyone in
			// the promise quorum (at or above floor nothing has been
			// pruned, so a choosing quorum would have left a trace in
			// every intersecting promise quorum). Fill it with an empty
			// value so contiguous application never stalls on a gap left
			// by a crashed leader.
			for slot := floor; slot < r.nextSlot; slot++ {
				if _, ok := adopt[slot]; ok {
					continue
				}
				if _, done := r.chosen[slot]; done {
					continue
				}
				reproposals = append(reproposals, acceptMsg{Ballot: r.ballot, Slot: slot, Value: nil})
			}
			needSync := floor > r.applied
			// Re-announce values this replica knows are chosen above its
			// applied floor: peers that missed the original learn converge
			// without waiting for an explicit Sync.
			var relearn []learnMsg
			for slot, v := range r.chosen {
				if slot >= r.applied {
					relearn = append(relearn, learnMsg{Slot: slot, Value: v})
				}
			}
			r.mu.Unlock()
			for _, a := range reproposals {
				r.sendAccept(a)
			}
			for _, l := range relearn {
				r.broadcast(msgLearn, l)
			}
			if needSync {
				// Slots in [applied, floor) are chosen but unknown here;
				// pull them (or a state image, if peers compacted them
				// away) so local application can pass the gap.
				r.Sync()
			}
			return nil
		}
		ch := r.promiseCh
		r.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return errors.New("paxos: leader election timed out")
		}
	}
}

// IsLeader reports whether this replica currently believes it leads.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leading
}

// PendingProposal is an in-flight proposal: its slot is already assigned
// and the accept round started; Wait parks until the outcome is known.
// The eager slot assignment is what lets a batcher pipeline proposals —
// starting proposals in order fixes their log order before any of them
// commits.
type PendingProposal struct {
	r    *Replica
	slot uint64
	w    *slotWaiter
}

// Slot returns the log slot this proposal was assigned.
func (p *PendingProposal) Slot() uint64 { return p.slot }

// Wait blocks until the slot is chosen and applied locally or the timeout
// elapses. ErrSlotLost means a competing proposal took the slot; the
// value was not committed there and may be retried.
func (p *PendingProposal) Wait(timeout time.Duration) (uint64, error) {
	tmr := time.NewTimer(timeout)
	defer tmr.Stop()
	select {
	case <-p.w.done:
		if p.w.lost {
			return 0, ErrSlotLost
		}
		return p.slot, nil
	case <-tmr.C:
		p.r.mu.Lock()
		delete(p.r.waiters, p.slot)
		p.r.mu.Unlock()
		return 0, fmt.Errorf("paxos: proposal for slot %d timed out", p.slot)
	}
}

// ProposeAsync assigns the next log slot to value and starts its accept
// round without waiting for the outcome. Only valid on the leader.
func (r *Replica) ProposeAsync(value []byte) (*PendingProposal, error) {
	r.mu.Lock()
	if !r.leading {
		r.mu.Unlock()
		return nil, errors.New("paxos: not the leader")
	}
	slot := r.nextSlot
	r.nextSlot++
	w := &slotWaiter{value: value, done: make(chan struct{})}
	r.waiters[slot] = w
	a := acceptMsg{Ballot: r.ballot, Slot: slot, Value: value}
	r.mu.Unlock()

	r.sendAccept(a)
	return &PendingProposal{r: r, slot: slot, w: w}, nil
}

// Propose replicates value into the next log slot. Only valid on the
// leader. Blocks until the slot is chosen and applied locally, or the
// timeout elapses. If the slot was chosen with a DIFFERENT value (a
// leader turnover re-proposed into it), Propose returns ErrSlotLost: the
// caller's value was not committed and may be retried.
func (r *Replica) Propose(value []byte, timeout time.Duration) (uint64, error) {
	p, err := r.ProposeAsync(value)
	if err != nil {
		return 0, err
	}
	return p.Wait(timeout)
}

// Crash detaches the replica from the network, simulating a process
// crash. Acceptor and learner state survives (real Paxos keeps promised/
// accepted on stable storage); leadership does not.
func (r *Replica) Crash() error {
	if err := r.net.Crash(r.id); err != nil {
		return err
	}
	r.mu.Lock()
	r.leading = false
	r.mu.Unlock()
	return nil
}

// Restart reattaches a crashed replica and pulls the chosen log it missed
// from its peers (learn-sync).
func (r *Replica) Restart() error {
	if err := r.net.Restart(r.id, r.handle); err != nil {
		return err
	}
	r.Sync()
	return nil
}

// Sync asks all peers for chosen values at or above this replica's
// contiguous-applied floor (anti-entropy pull). Useful after a restart or
// a healed partition; replies flow through the normal learn path.
func (r *Replica) Sync() {
	r.mu.Lock()
	from := r.applied
	r.mu.Unlock()
	r.broadcast(msgSyncReq, syncReqMsg{From: from})
}

// sendAccept broadcasts an accept and processes the leader's own vote.
func (r *Replica) sendAccept(a acceptMsg) {
	r.broadcast(msgAccept, a)
	// Self-accept.
	r.onAccept(r.id, a)
}

// Chosen returns the chosen value for a slot, if any.
func (r *Replica) Chosen(slot uint64) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.chosen[slot]
	return v, ok
}

// Applied returns the number of contiguous slots applied so far.
func (r *Replica) Applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.applied
}

func (r *Replica) acceptedListLocked() []slotValue {
	out := make([]slotValue, 0, len(r.accepted))
	for _, sv := range r.accepted {
		out = append(out, sv)
	}
	return out
}

func (r *Replica) broadcast(msgType string, v any) {
	payload := mustJSON(v)
	for _, p := range r.peers {
		if p == r.id {
			continue
		}
		r.net.Send(netsim.Message{From: r.id, To: p, Type: msgType, Payload: payload})
	}
}

func (r *Replica) send(to, msgType string, v any) {
	r.net.Send(netsim.Message{From: r.id, To: to, Type: msgType, Payload: mustJSON(v)})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("paxos: marshal: %v", err))
	}
	return b
}

// handle dispatches incoming messages; it runs on the node's single
// netsim goroutine.
func (r *Replica) handle(m netsim.Message) {
	switch m.Type {
	case msgPrepare:
		var p prepareMsg
		if json.Unmarshal(m.Payload, &p) != nil {
			return
		}
		r.onPrepare(m.From, p)
	case msgPromise:
		var p promiseMsg
		if json.Unmarshal(m.Payload, &p) != nil {
			return
		}
		r.onPromise(m.From, p)
	case msgAccept:
		var a acceptMsg
		if json.Unmarshal(m.Payload, &a) != nil {
			return
		}
		r.onAccept(m.From, a)
	case msgAccepted:
		var a acceptedMsg
		if json.Unmarshal(m.Payload, &a) != nil {
			return
		}
		r.onAccepted(m.From, a)
	case msgLearn:
		var l learnMsg
		if json.Unmarshal(m.Payload, &l) != nil {
			return
		}
		r.onLearn(l)
	case msgSyncReq:
		var s syncReqMsg
		if json.Unmarshal(m.Payload, &s) != nil {
			return
		}
		r.onSyncReq(m.From, s)
	case msgSyncRep:
		var s syncRepMsg
		if json.Unmarshal(m.Payload, &s) != nil {
			return
		}
		if s.Snap != nil {
			r.adoptImage(s.Snap)
		}
		for _, l := range s.Entries {
			r.onLearn(l)
		}
	}
}

// onSyncReq serves chosen values at or above the requester's floor. When
// the requester is below this replica's own retained floor (compaction
// discarded the prefix it needs), per-slot catch-up cannot work — the
// reply carries a state image instead. applyMu keeps the applier
// quiescent so the image is exactly the applied floor.
func (r *Replica) onSyncReq(from string, s syncReqMsg) {
	r.applyMu.Lock()
	r.mu.Lock()
	rep := syncRepMsg{}
	for slot, v := range r.chosen {
		if slot >= s.From {
			rep.Entries = append(rep.Entries, learnMsg{Slot: slot, Value: v})
		}
	}
	if s.From < r.chosenFloor && r.applied > s.From && r.logApp != nil {
		if blob, err := r.logApp.Snapshot(); err == nil {
			rep.Snap = &pxImage{Applied: r.applied, App: blob}
		}
	}
	r.mu.Unlock()
	r.applyMu.Unlock()
	if len(rep.Entries) > 0 || rep.Snap != nil {
		r.send(from, msgSyncRep, rep)
	}
}

func (r *Replica) onPrepare(from string, p prepareMsg) {
	r.mu.Lock()
	if r.lastSeen.Less(p.Ballot) {
		r.lastSeen = p.Ballot
	}
	if r.promised.Less(p.Ballot) {
		r.promised = p.Ballot
		// A higher ballot demotes any current leadership.
		if r.leading && r.ballot.Less(p.Ballot) {
			r.leading = false
		}
		// fsync point: the promise must be on stable storage before the
		// vote is sent — a recovered acceptor that forgot it could
		// promise a lower ballot and split the log.
		if !r.journalLocked(pxRecord{K: pxPromise, B: p.Ballot}) {
			r.mu.Unlock()
			return
		}
		reply := promiseMsg{Ballot: p.Ballot, Accepted: r.acceptedListLocked(), Applied: r.applied}
		r.mu.Unlock()
		r.send(from, msgPromise, reply)
		return
	}
	r.mu.Unlock()
}

func (r *Replica) onPromise(from string, p promiseMsg) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promises == nil || p.Ballot != r.ballot {
		return
	}
	r.promises[from] = p
	select {
	case r.promiseCh <- struct{}{}:
	default:
	}
}

func (r *Replica) onAccept(from string, a acceptMsg) {
	r.mu.Lock()
	if r.lastSeen.Less(a.Ballot) {
		r.lastSeen = a.Ballot
	}
	if a.Ballot.Less(r.promised) {
		r.mu.Unlock()
		return // stale ballot: reject silently
	}
	r.promised = a.Ballot
	// A higher-ballot accept means another leader won an election this
	// replica missed (e.g. while partitioned): stop claiming leadership.
	if r.leading && r.ballot.Less(a.Ballot) {
		r.leading = false
	}
	r.accepted[a.Slot] = slotValue{Slot: a.Slot, Ballot: a.Ballot, Value: a.Value}
	// fsync point: the accept (which doubles as a promise for a.Ballot)
	// must be durable before the accepted vote is sent — choosing quorums
	// count on it surviving a crash.
	if !r.journalLocked(pxRecord{K: pxAccept, B: a.Ballot, S: a.Slot, V: a.Value}) {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
	if from == r.id {
		// Leader's self-vote.
		r.onAccepted(r.id, acceptedMsg{Ballot: a.Ballot, Slot: a.Slot})
		return
	}
	r.send(from, msgAccepted, acceptedMsg{Ballot: a.Ballot, Slot: a.Slot})
}

func (r *Replica) onAccepted(from string, a acceptedMsg) {
	r.mu.Lock()
	if !r.leading || a.Ballot != r.ballot {
		r.mu.Unlock()
		return
	}
	if _, done := r.chosen[a.Slot]; done {
		r.mu.Unlock()
		return
	}
	if r.votes[a.Slot] == nil {
		r.votes[a.Slot] = map[string]bool{}
	}
	r.votes[a.Slot][from] = true
	if len(r.votes[a.Slot]) < r.quorum() {
		r.mu.Unlock()
		return
	}
	// Chosen: learn locally and tell everyone.
	sv, ok := r.accepted[a.Slot]
	if !ok {
		r.mu.Unlock()
		return
	}
	value := sv.Value
	r.mu.Unlock()
	r.broadcast(msgLearn, learnMsg{Slot: a.Slot, Value: value})
	r.onLearn(learnMsg{Slot: a.Slot, Value: value})
}

// applyItem is one chosen slot handed to the Applier.
type applyItem struct {
	slot  uint64
	value []byte
}

// applyChosen hands chosen slots to the Applier in order, with applyMu
// held and mu not. The applied floor advances past a slot only once its
// callback has returned, so Applied (and WaitApplied) never report a
// value the application has not received; a snapshot the new floor
// makes due is written in the same critical section, so the floor is
// not observable before the write finishes either.
func (r *Replica) applyChosen(items []applyItem) {
	for _, it := range items {
		if r.apply != nil {
			r.apply(it.slot, it.value)
		}
		r.mu.Lock()
		r.applied = it.slot + 1
		r.maybeSnapshotLocked()
		r.mu.Unlock()
	}
}

// onLearn records a chosen value and applies the contiguous prefix.
// applyMu is taken before mu and held across the Applier calls: the batch
// extraction and its application form one critical section, so two racing
// learners can never hand batches to the Applier out of slot order.
func (r *Replica) onLearn(l learnMsg) {
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	if l.Slot < r.applied {
		// Already applied; after an image adoption the chosen entry
		// itself may be gone, so the done-check below wouldn't catch it.
		r.mu.Unlock()
		return
	}
	if _, done := r.chosen[l.Slot]; done {
		r.mu.Unlock()
		return
	}
	r.chosen[l.Slot] = l.Value
	// fsync point: the chosen value is journaled before any waiter is
	// woken — an acked op is on this replica's disk (and, having been
	// chosen, on a durable quorum of acceptor journals). A journal
	// failure here degrades to in-memory learning: the value is already
	// chosen cluster-wide and recoverable by learn-sync from peers.
	_ = r.journalLocked(pxRecord{K: pxChosen, S: l.Slot, V: l.Value})
	// Apply contiguous prefix.
	var toApply []applyItem
	for next := r.applied; ; next++ {
		v, ok := r.chosen[next]
		if !ok {
			break
		}
		toApply = append(toApply, applyItem{next, v})
	}
	var toWake *slotWaiter
	var toWakeLost bool
	if w, ok := r.waiters[l.Slot]; ok {
		toWake, toWakeLost = w, !bytes.Equal(w.value, l.Value)
		delete(r.waiters, l.Slot)
	}
	r.mu.Unlock()
	r.applyChosen(toApply)
	if toWake != nil {
		toWake.finish(toWakeLost)
	}
}
