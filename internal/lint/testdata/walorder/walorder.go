// Package walorder is the analyzer fixture for walorder: network sends
// reachable after a journal append whose fsync outcome was discarded.
// Marked lines must be reported; everything else must stay silent.
package walorder

import (
	"sync"

	"prever/internal/netsim"
	"prever/internal/wal"
)

type replica struct {
	log *wal.Log
	net *netsim.Network
	id  string
}

// journal is a package-local helper that reaches the WAL and surfaces
// the append outcome; calls that discard its result are events.
func (r *replica) journal(rec []byte) bool {
	return r.log.AppendSync(rec) == nil
}

// vote is a package-local helper that reaches the network.
func (r *replica) vote(payload []byte) {
	r.net.Broadcast(r.id, "vote", payload)
}

// bufs stands in for the pooled encode buffers a send helper reuses.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// broadcastSealed has the shape of a MAC-once send helper: the body is
// encoded once into a pooled buffer, then sealed and sent per
// destination in a loop.
func (r *replica) broadcastSealed(peers []string, payload []byte) {
	buf := bufs.Get().(*[]byte)
	*buf = append((*buf)[:0], payload...)
	for _, to := range peers {
		sealed := append(append([]byte(nil), *buf...), to...)
		r.net.Send(netsim.Message{From: r.id, To: to, Type: "vote", Payload: sealed})
	}
	bufs.Put(buf)
}

// discardedThenSealedBroadcast: the send reached through the pooled,
// per-destination helper is still a send.
func (r *replica) discardedThenSealedBroadcast(rec []byte) {
	_ = r.journal(rec)
	r.broadcastSealed([]string{"a", "b"}, rec) // want walorder
}

// checkedThenSealedBroadcast: gated on the outcome, the helper is fine.
func (r *replica) checkedThenSealedBroadcast(rec []byte) {
	if !r.journal(rec) {
		return
	}
	r.broadcastSealed([]string{"a", "b"}, rec)
}

// discardedThenSend: the classic violation — outcome thrown away, then a
// send on the same path.
func (r *replica) discardedThenSend(rec []byte) {
	_ = r.journal(rec)
	r.vote(rec) // want walorder
}

// discardedDirect: a direct wal call as a bare statement, then a direct
// network send.
func (r *replica) discardedDirect(rec []byte) {
	_ = r.log.Append(rec)
	r.net.Send(netsim.Message{From: r.id, To: "peer", Type: "vote", Payload: rec}) // want walorder
}

// checkedThenSend: the correct shape — the outcome gates the send.
func (r *replica) checkedThenSend(rec []byte) {
	if !r.journal(rec) {
		return
	}
	r.vote(rec)
}

// checkedVar: binding the outcome to a variable counts as checked even
// before the branch; only all-blank discards are events.
func (r *replica) checkedVar(rec []byte) {
	ok := r.journal(rec)
	r.vote(rec)
	_ = ok
}

// branchMerge: an event on one arm keeps the send after the merge
// reachable on that path.
func (r *replica) branchMerge(rec []byte, fast bool) {
	if fast {
		_ = r.journal(rec)
	} else if !r.journal(rec) {
		return
	}
	r.vote(rec) // want walorder
}

// terminatedBranch: the discarding arm returns, so the send below only
// follows the checked arm.
func (r *replica) terminatedBranch(rec []byte, fast bool) {
	if fast {
		_ = r.journal(rec)
		return
	}
	if !r.journal(rec) {
		return
	}
	r.vote(rec)
}

// goroutineFrame: a spawned goroutine is a new frame — its send is not
// sequenced after this frame's event (the literal body is also scanned
// on its own, starting event-free).
func (r *replica) goroutineFrame(rec []byte) {
	_ = r.journal(rec)
	go func() {
		r.vote(rec)
	}()
}

// deferredSend: a send deferred while an event is pending runs at
// return, still unconfirmed.
func (r *replica) deferredSend(rec []byte) {
	_ = r.journal(rec)
	defer r.vote(rec) // want walorder
}

// loopBody: event and send inside the same iteration.
func (r *replica) loopBody(recs [][]byte) {
	for _, rec := range recs {
		_ = r.journal(rec)
		r.vote(rec) // want walorder
	}
}

// snapshotDiscarded: Snapshot is journal-like too.
func (r *replica) snapshotDiscarded(img []byte) {
	_ = r.log.Snapshot(img)
	r.vote(img) // want walorder
}

// markExecuted has the shape of the execution bookkeeping that live
// execution and journal replay share: it updates state but neither
// journals nor sends, so it neither raises nor clears an event.
func (r *replica) markExecuted(rec []byte) [][]byte {
	return [][]byte{rec}
}

// replayExecuted: replay runs the shared bookkeeping and applies; it
// never journals or speaks.
func (r *replica) replayExecuted(rec []byte, apply func([][]byte)) {
	apply(r.markExecuted(rec))
}

// executeGated: live execution runs the shared bookkeeping, journals,
// applies outside the lock, and gates the checkpoint vote on the kept
// journal outcome.
func (r *replica) executeGated(mu *sync.Mutex, rec []byte, apply func([][]byte)) {
	fresh := r.markExecuted(rec)
	durable := r.journal(rec)
	mu.Unlock()
	apply(fresh)
	mu.Lock()
	if durable {
		r.vote(rec)
	}
}

// executeUngated: the same path with the journal outcome thrown away;
// the checkpoint vote after the apply is reported.
func (r *replica) executeUngated(mu *sync.Mutex, rec []byte, apply func([][]byte)) {
	fresh := r.markExecuted(rec)
	_ = r.journal(rec)
	mu.Unlock()
	apply(fresh)
	mu.Lock()
	r.vote(rec) // want walorder
}

// ignored: a reviewed site stays silent under a directive.
func (r *replica) ignored(rec []byte) {
	_ = r.journal(rec)
	//lint:ignore walorder chosen cluster-wide already; peers re-serve the value on learn-sync
	r.vote(rec)
}
