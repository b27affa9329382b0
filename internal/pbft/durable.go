package pbft

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"prever/internal/codec"
	"prever/internal/netsim"
	"prever/internal/wal"
)

// Durable-mode journal records. PBFT's safety across crashes needs the
// accepted pre-prepares and prepared certificates (they are what a
// view-change quorum counts on), the view the replica is in (certs are
// view-scoped), and the executed batches (so recovery replays the log
// locally — including the client-seq dedup marks — and only
// state-transfers the delta).
const (
	pbView byte = 1 + iota // view switch; Seq carries the new-view NextSeq
	pbPP                   // accepted pre-prepare
	pbCM                   // prepared certificate (commit vote sent)
	pbEX                   // executed batch
)

// Durable format versions. A journal record starts with its version
// byte; a snapshot starts with its format string. Data written by an
// older format is refused at open, never reinterpreted.
const (
	pbRecordVersion byte = 2
	pbRecordFormat       = "prever/pbft/wal/v2"
	pbSnapFormat         = "prever/pbft/snap/v2"
)

// pbRecord is one journal record: version, kind, view, seq, digest,
// batch, in the codec framing.
type pbRecord struct {
	K      byte
	View   uint64
	Seq    uint64
	Digest Digest
	Batch  []Request
}

func (rec *pbRecord) encode() []byte {
	w := codec.NewWriter(64)
	w.Byte(pbRecordVersion)
	w.Byte(rec.K)
	w.Uvarint(rec.View)
	w.Uvarint(rec.Seq)
	w.Digest(rec.Digest)
	encodeBatch(w, rec.Batch)
	return w.Bytes()
}

func decodeRecord(b []byte) (pbRecord, error) {
	var rec pbRecord
	if len(b) > 0 && b[0] != pbRecordVersion {
		return rec, staleFormat("journal record", codec.ForeignFormat(b, "prever/pbft/wal/v1 (JSON)"), pbRecordFormat)
	}
	rd := codec.NewReader(b)
	rd.Byte()
	rec.K = rd.Byte()
	rec.View = rd.Uvarint()
	rec.Seq = rd.Uvarint()
	rec.Digest = rd.Digest()
	rec.Batch = decodeBatch(rd)
	if err := rd.Done(); err != nil {
		return rec, fmt.Errorf("decoding journal record: %w", err)
	}
	if rec.K < pbView || rec.K > pbEX {
		return rec, fmt.Errorf("decoding journal record: %w: kind %d", codec.ErrMalformed, rec.K)
	}
	return rec, nil
}

// staleFormat is the refusal for durable data in a format this build
// does not read.
func staleFormat(what, found, want string) error {
	return fmt.Errorf("%s format %s found, want %s: the data directory was written by another version; refusing to read it", what, found, want)
}

type pbSnapshot struct {
	View     uint64
	ExecSeq  uint64
	Stable   uint64
	Executed []reqID // executedR dedup keys, sorted
	App      []byte
	// In-flight instances at snapshot time. Snapshotting compacts the
	// journal segments that held these instances' pbPP/pbCM records, so
	// without carrying them here a snapshot would silently destroy
	// durable pre-prepares and prepared certificates for everything
	// above the execution floor — votes this replica already sent.
	Insts []pbInstSnap
}

type pbInstSnap struct {
	Seq         uint64
	Digest      Digest
	Batch       []Request
	PrePrepared bool
	Committed   bool
	CertSet     bool
	CertView    uint64
	CertDigest  Digest
	CertBatch   []Request
}

// minInstSize is a pbInstSnap's smallest encoding: seq, digest, empty
// batch, three flags, cert view, cert digest, empty cert batch.
const minInstSize = 7 + 2*sha256.Size

func (s *pbSnapshot) encode() []byte {
	w := codec.NewWriter(64 + len(s.App))
	w.String(pbSnapFormat)
	w.Uvarint(s.View)
	w.Uvarint(s.ExecSeq)
	w.Uvarint(s.Stable)
	encodeIDs(w, s.Executed)
	w.Blob(s.App)
	codec.WriteList(w, s.Insts, (*pbInstSnap).encode)
	return w.Bytes()
}

func (is *pbInstSnap) encode(w *codec.Writer) {
	w.Uvarint(is.Seq)
	w.Digest(is.Digest)
	encodeBatch(w, is.Batch)
	w.Bool(is.PrePrepared)
	w.Bool(is.Committed)
	w.Bool(is.CertSet)
	w.Uvarint(is.CertView)
	w.Digest(is.CertDigest)
	encodeBatch(w, is.CertBatch)
}

func (is *pbInstSnap) decode(rd *codec.Reader) {
	is.Seq = rd.Uvarint()
	is.Digest = rd.Digest()
	is.Batch = decodeBatch(rd)
	is.PrePrepared = rd.Bool()
	is.Committed = rd.Bool()
	is.CertSet = rd.Bool()
	is.CertView = rd.Uvarint()
	is.CertDigest = rd.Digest()
	is.CertBatch = decodeBatch(rd)
}

func decodeSnapshot(b []byte) (pbSnapshot, error) {
	var s pbSnapshot
	rd := codec.NewReader(b)
	if f := rd.String(); f != pbSnapFormat {
		return s, staleFormat("snapshot", codec.ForeignFormat(b, "unlabelled JSON"), pbSnapFormat)
	}
	s.View = rd.Uvarint()
	s.ExecSeq = rd.Uvarint()
	s.Stable = rd.Uvarint()
	s.Executed = decodeIDs(rd)
	s.App = rd.Blob()
	s.Insts = codec.ReadList(rd, minInstSize, (*pbInstSnap).decode)
	if err := rd.Done(); err != nil {
		return s, fmt.Errorf("decoding snapshot: %w", err)
	}
	return s, nil
}

// DefaultSnapshotEvery is the executed-sequence cadence between
// snapshots when DurableOptions leaves SnapshotEvery zero.
const DefaultSnapshotEvery = 256

// DurableOptions configure a crash-durable replica.
type DurableOptions struct {
	// Dir is the replica's private data directory (required).
	Dir string
	// App, when set, is snapshotted alongside the consensus state and
	// restored before the post-snapshot tail is re-executed. It should
	// be the same state machine the Applier mutates.
	App wal.Snapshotter
	// SnapshotEvery is the number of executed sequences between
	// snapshots. Zero means DefaultSnapshotEvery.
	SnapshotEvery uint64
	// SegmentBytes overrides the WAL segment rotation threshold.
	SegmentBytes int64
	// NoSync disables fsync (tests/benches only).
	NoSync bool
}

// NewDurableReplica creates a PBFT replica whose protocol-critical state
// survives crashes: accepted pre-prepares, prepared certificates, view
// switches, and executed batches are journaled to a WAL in d.Dir
// (fsynced before the corresponding vote or client wake-up), with
// periodic snapshots bounding the journal tail. Opening an existing
// directory recovers — snapshot, then record replay (re-executing the
// tail through apply), after which Sync() state-transfers only the
// delta. If the network already knows id as a crashed node, the replica
// reattaches in place of its previous incarnation.
func NewDurableReplica(net *netsim.Network, id string, ids []string, f int, apply Applier, opts Options, d DurableOptions) (*Replica, error) {
	if d.Dir == "" {
		return nil, fmt.Errorf("pbft: durable replica %s needs a data dir", id)
	}
	r, err := newReplica(net, id, ids, f, apply, opts)
	if err != nil {
		return nil, err
	}
	log, rec, err := wal.Open(d.Dir, wal.Options{SegmentBytes: d.SegmentBytes, NoSync: d.NoSync})
	if err != nil {
		return nil, err
	}
	if err := r.recoverFromDisk(rec, d.App); err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("pbft: recovering %s: %w", d.Dir, err)
	}
	// Journaling turns on only after replay; re-journaling recovered
	// records would duplicate the tail on every restart.
	r.log = log
	r.logApp = d.App
	r.snapEvery = d.SnapshotEvery
	if r.snapEvery == 0 {
		r.snapEvery = DefaultSnapshotEvery
	}
	r.lastSnap = r.execSeq

	if err := net.Register(id, r.handle); err != nil {
		if rerr := net.Restart(id, r.handle); rerr != nil {
			_ = log.Close()
			return nil, fmt.Errorf("pbft: %v (and restart failed: %v)", err, rerr)
		}
	}
	return r, nil
}

// recoverFromDisk rebuilds replica state from a WAL recovery: snapshot
// floor first, then the record tail in append order. Runs before the
// replica is registered, so no locking is needed.
func (r *Replica) recoverFromDisk(rec *wal.Recovery, app wal.Snapshotter) error {
	if rec.Snapshot != nil {
		snap, err := decodeSnapshot(rec.Snapshot)
		if err != nil {
			return err
		}
		r.view = snap.View
		r.execSeq = snap.ExecSeq
		r.nextSeq = snap.ExecSeq
		r.execFloor = snap.ExecSeq
		r.stable = snap.Stable
		for _, k := range snap.Executed {
			r.executedR[k] = true
		}
		if app != nil && snap.App != nil {
			if err := app.Restore(snap.App); err != nil {
				return fmt.Errorf("restoring application state: %w", err)
			}
		}
		for _, is := range snap.Insts {
			if is.Seq < r.execSeq {
				continue
			}
			inst := r.instLocked(is.Seq)
			inst.digest = is.Digest
			inst.batch = is.Batch
			inst.prePrepared = is.PrePrepared
			inst.committed = is.Committed
			inst.certSet = is.CertSet
			inst.certView = is.CertView
			inst.certDigest = is.CertDigest
			inst.certBatch = is.CertBatch
			if is.Seq >= r.nextSeq {
				r.nextSeq = is.Seq + 1
			}
		}
	}
	for _, raw := range rec.Records {
		pr, err := decodeRecord(raw)
		if err != nil {
			// Passed the CRC but fails to decode: a stale format or a
			// bug, not disk corruption; refuse to guess.
			return err
		}
		switch pr.K {
		case pbView:
			if pr.View <= r.view {
				break
			}
			// Mirror enterViewLocked: un-executed instances reset, the
			// new-view NextSeq is authoritative.
			r.view = pr.View
			if pr.Seq > 0 {
				r.nextSeq = pr.Seq
			}
			for _, inst := range r.insts {
				if !inst.executed {
					inst.resetVotesLocked()
				}
			}
		case pbPP:
			if pr.Seq < r.execSeq {
				break // already executed per the snapshot floor
			}
			inst := r.instLocked(pr.Seq)
			if inst.executed {
				break
			}
			inst.prePrepared = true
			inst.digest = pr.Digest
			inst.batch = pr.Batch
			if pr.Seq >= r.nextSeq {
				r.nextSeq = pr.Seq + 1
			}
		case pbCM:
			if pr.Seq < r.execSeq {
				break
			}
			inst := r.instLocked(pr.Seq)
			if inst.executed || !inst.prePrepared {
				break
			}
			// The prepared certificate survives (committed suppresses a
			// duplicate commit vote in the recovered view; the sticky cert
			// keeps the batch in view-change messages across later views);
			// quorum counts are volatile and rebuilt by the live protocol.
			// decided stays false: a recovered cert proves this replica's
			// vote, not a counted 2f+1 commit quorum.
			inst.committed = true
			inst.setCertLocked(pr.View)
		case pbEX:
			if pr.Seq != r.execSeq {
				break // exec records are journaled in execution order
			}
			r.reexecuteRecovered(pr)
		}
	}
	if r.vcTarget < r.view {
		r.vcTarget = r.view
	}
	if r.nextSeq < r.execSeq {
		r.nextSeq = r.execSeq
	}
	return nil
}

// reexecuteRecovered re-applies one journaled execution during recovery:
// the same dedup-and-apply path as executeInstanceLocked, minus the
// messaging, journaling, and waiter machinery (there are none yet).
func (r *Replica) reexecuteRecovered(pr pbRecord) {
	inst := r.instLocked(pr.Seq)
	inst.executed = true
	inst.prePrepared = true
	inst.digest = pr.Digest
	inst.batch = pr.Batch
	inst.committed = true
	r.execSeq = pr.Seq + 1
	r.execLog[pr.Seq] = execEntry{Seq: pr.Seq, Digest: pr.Digest, Batch: pr.Batch}
	fresh := pr.Batch[:0:0]
	for _, req := range pr.Batch {
		if r.executedR[idOf(req)] {
			continue
		}
		r.executedR[idOf(req)] = true
		fresh = append(fresh, req)
	}
	if r.apply != nil && len(fresh) > 0 {
		r.apply(pr.Seq, fresh)
	}
}

// journalLocked appends one record and fsyncs. Callers hold r.mu. A
// false return means the record is NOT durable and the caller must not
// send the vote it backs; view and exec records tolerate degradation
// (they are reconstructible from the cluster). In-memory replicas
// (r.log == nil) always succeed.
func (r *Replica) journalLocked(rec pbRecord) bool {
	if r.log == nil {
		return true
	}
	tolerant := rec.K == pbEX || rec.K == pbView
	if r.walFailed {
		return tolerant
	}
	if err := r.log.AppendSync(rec.encode()); err != nil {
		r.walFailed = true
		return tolerant
	}
	return true
}

// maybeSnapshotLocked captures replica + application state and compacts
// the journal once snapEvery sequences have executed since the last
// snapshot. Called with mu held at the end of executeInstanceLocked; the
// applying==0 && execSeq==seq+1 guard proves the applier is quiescent
// AND no execution beyond seq+1 happened, so the application state
// corresponds exactly to execSeq. mu stays held across the write so no
// concurrent journal append can land in a segment the snapshot is about
// to supersede.
func (r *Replica) maybeSnapshotLocked(seq uint64) {
	if r.log == nil || r.walFailed {
		return
	}
	if r.applying != 0 || r.execSeq != seq+1 {
		return
	}
	if r.execSeq-r.lastSnap < r.snapEvery {
		return
	}
	snap := pbSnapshot{
		View:     r.view,
		ExecSeq:  r.execSeq,
		Stable:   r.stable,
		Executed: sortedIDs(r.executedR),
	}
	for seq, inst := range r.insts {
		if inst.executed || seq < r.execSeq || (!inst.prePrepared && !inst.certSet) {
			continue
		}
		snap.Insts = append(snap.Insts, pbInstSnap{
			Seq:         seq,
			Digest:      inst.digest,
			Batch:       inst.batch,
			PrePrepared: inst.prePrepared,
			Committed:   inst.committed,
			CertSet:     inst.certSet,
			CertView:    inst.certView,
			CertDigest:  inst.certDigest,
			CertBatch:   inst.certBatch,
		})
	}
	sort.Slice(snap.Insts, func(i, j int) bool { return snap.Insts[i].Seq < snap.Insts[j].Seq })
	if r.logApp != nil {
		blob, err := r.logApp.Snapshot()
		if err != nil {
			return // keep journaling; the tail still covers everything
		}
		snap.App = blob
	}
	if err := r.log.Snapshot(snap.encode()); err != nil {
		r.walFailed = true
		return
	}
	r.lastSnap = snap.ExecSeq
}

// CloseStorage syncs and closes the WAL. The replica keeps running in
// memory but goes vote-silent (its votes can no longer be made durable);
// intended for tests tearing down a durable replica before re-opening
// its directory, and for server shutdown.
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
