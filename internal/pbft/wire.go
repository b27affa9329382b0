package pbft

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
	"sort"
	"sync"

	"prever/internal/codec"
	"prever/internal/netsim"
)

// The wire format. Every message body is one kind byte followed by the
// message's fields in the internal/codec framing; the envelope is
// body || HMAC-SHA256(pair key, body). The kind byte sits under the MAC,
// so a message cannot be relabelled in flight (a prepare and a commit
// have the same fields and differ only in kind).

// msgKinds maps the netsim message type to the body's kind byte.
var msgKinds = map[string]byte{
	msgRequest:    1,
	msgPrePrepare: 2,
	msgPrepare:    3,
	msgCommit:     4,
	msgCheckpoint: 5,
	msgViewChange: 6,
	msgNewView:    7,
	msgStateReq:   8,
	msgStateRep:   9,
}

// Minimum encoded sizes, for codec.Reader.Count.
const (
	minRequestSize    = 3               // empty client, seq, empty op
	minPrePrepareSize = 3 + sha256.Size // view, seq, digest, empty batch
	minReqIDSize      = 2               // empty client, seq
	macSize           = sha256.Size     // envelope tag
)

// wireMsg is a message body the replica can encode.
type wireMsg interface {
	encode(w *codec.Writer)
}

// wireCodec is a message body that also decodes itself.
type wireCodec interface {
	wireMsg
	decode(rd *codec.Reader)
}

// newWireMsg returns an empty message of the given kind, or nil for an
// unknown kind.
func newWireMsg(kind byte) wireCodec {
	switch kind {
	case msgKinds[msgRequest]:
		return new(Request)
	case msgKinds[msgPrePrepare]:
		return new(prePrepareMsg)
	case msgKinds[msgPrepare], msgKinds[msgCommit]:
		return new(voteMsg)
	case msgKinds[msgCheckpoint]:
		return new(checkpointMsg)
	case msgKinds[msgViewChange]:
		return new(viewChangeMsg)
	case msgKinds[msgNewView]:
		return new(newViewMsg)
	case msgKinds[msgStateReq]:
		return new(stateReqMsg)
	case msgKinds[msgStateRep]:
		return new(stateRepMsg)
	}
	return nil
}

var errUnknownKind = fmt.Errorf("%w: unknown message kind", codec.ErrMalformed)

// decodeBody decodes a message body: its kind byte, then exactly the
// fields of that kind's message.
func decodeBody(body []byte) (byte, wireCodec, error) {
	rd := codec.NewReader(body)
	kind := rd.Byte()
	m := newWireMsg(kind)
	if m == nil {
		return kind, nil, errUnknownKind
	}
	m.decode(rd)
	if err := rd.Done(); err != nil {
		return kind, nil, err
	}
	return kind, m, nil
}

// scratch holds reusable encode buffers for message bodies and digests;
// nothing retains a scratch buffer's bytes past the call that filled it.
var scratch = sync.Pool{New: func() any { return codec.NewWriter(512) }}

func (q Request) encode(w *codec.Writer) {
	w.String(q.Client)
	w.Uvarint(q.Seq)
	w.Blob(q.Op)
}

func (q *Request) decode(rd *codec.Reader) {
	q.Client = rd.String()
	q.Seq = rd.Uvarint()
	q.Op = rd.Blob()
}

func encodeBatch(w *codec.Writer, batch []Request) {
	codec.WriteList(w, batch, (*Request).encode)
}

func decodeBatch(rd *codec.Reader) []Request {
	return codec.ReadList(rd, minRequestSize, (*Request).decode)
}

// digestOf hashes the batch's wire encoding.
func digestOf(batch []Request) Digest {
	w := scratch.Get().(*codec.Writer)
	w.Reset()
	encodeBatch(w, batch)
	d := Digest(sha256.Sum256(w.Bytes()))
	scratch.Put(w)
	return d
}

// reqID identifies a client request for exactly-once execution.
type reqID struct {
	client string
	seq    uint64
}

func idOf(req Request) reqID { return reqID{req.Client, req.Seq} }

// sortedIDs lists a dedup set in (client, seq) order, the canonical
// order state images and snapshots carry it in.
func sortedIDs(set map[reqID]bool) []reqID {
	out := make([]reqID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].client != out[j].client {
			return out[i].client < out[j].client
		}
		return out[i].seq < out[j].seq
	})
	return out
}

func (id *reqID) encode(w *codec.Writer) {
	w.String(id.client)
	w.Uvarint(id.seq)
}

func (id *reqID) decode(rd *codec.Reader) {
	id.client = rd.String()
	id.seq = rd.Uvarint()
}

func encodeIDs(w *codec.Writer, ids []reqID) {
	codec.WriteList(w, ids, (*reqID).encode)
}

func decodeIDs(rd *codec.Reader) []reqID {
	return codec.ReadList(rd, minReqIDSize, (*reqID).decode)
}

func (m prePrepareMsg) encode(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Digest(m.Digest)
	encodeBatch(w, m.Batch)
}

func (m *prePrepareMsg) decode(rd *codec.Reader) {
	m.View = rd.Uvarint()
	m.Seq = rd.Uvarint()
	m.Digest = rd.Digest()
	m.Batch = decodeBatch(rd)
}

func (m voteMsg) encode(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.Seq)
	w.Digest(m.Digest)
	w.String(m.Replica)
}

func (m *voteMsg) decode(rd *codec.Reader) {
	m.View = rd.Uvarint()
	m.Seq = rd.Uvarint()
	m.Digest = rd.Digest()
	m.Replica = rd.String()
}

func (m checkpointMsg) encode(w *codec.Writer) {
	w.Uvarint(m.Seq)
	w.String(m.Replica)
}

func (m *checkpointMsg) decode(rd *codec.Reader) {
	m.Seq = rd.Uvarint()
	m.Replica = rd.String()
}

func (m viewChangeMsg) encode(w *codec.Writer) {
	w.Uvarint(m.NewView)
	w.Uvarint(m.Stable)
	w.Uvarint(m.Exec)
	w.String(m.Replica)
	codec.WriteList(w, m.Prepared, (*prePrepareMsg).encode)
}

func (m *viewChangeMsg) decode(rd *codec.Reader) {
	m.NewView = rd.Uvarint()
	m.Stable = rd.Uvarint()
	m.Exec = rd.Uvarint()
	m.Replica = rd.String()
	m.Prepared = codec.ReadList(rd, minPrePrepareSize, (*prePrepareMsg).decode)
}

func (m newViewMsg) encode(w *codec.Writer) {
	w.Uvarint(m.View)
	w.Uvarint(m.NextSeq)
	codec.WriteList(w, m.PrePrepares, (*prePrepareMsg).encode)
}

func (m *newViewMsg) decode(rd *codec.Reader) {
	m.View = rd.Uvarint()
	m.NextSeq = rd.Uvarint()
	m.PrePrepares = codec.ReadList(rd, minPrePrepareSize, (*prePrepareMsg).decode)
}

func (m stateReqMsg) encode(w *codec.Writer) {
	w.Uvarint(m.Have)
	w.Uvarint(m.View)
}

func (m *stateReqMsg) decode(rd *codec.Reader) {
	m.Have = rd.Uvarint()
	m.View = rd.Uvarint()
}

func (img *stateImage) encode(w *codec.Writer) {
	w.Uvarint(img.ExecSeq)
	encodeIDs(w, img.Executed)
	w.Blob(img.App)
}

func (img *stateImage) decode(rd *codec.Reader) {
	img.ExecSeq = rd.Uvarint()
	img.Executed = decodeIDs(rd)
	img.App = rd.Blob()
}

func (m stateRepMsg) encode(w *codec.Writer) {
	w.String(m.Replica)
	w.Uvarint(m.View)
	codec.WriteList(w, m.Entries, (*prePrepareMsg).encode)
	w.Bool(m.Snap != nil)
	if m.Snap != nil {
		m.Snap.encode(w)
	}
}

func (m *stateRepMsg) decode(rd *codec.Reader) {
	m.Replica = rd.String()
	m.View = rd.Uvarint()
	m.Entries = codec.ReadList(rd, minPrePrepareSize, (*prePrepareMsg).decode)
	if rd.Bool() {
		m.Snap = new(stateImage)
		m.Snap.decode(rd)
	}
}

// --- authentication ---

// peerMAC holds the keyed HMAC state for one (sender, receiver) pair.
// Keyed states are pooled so concurrent senders never share one, and a
// Reset restores the keyed state without re-deriving the key.
type peerMAC struct {
	pool sync.Pool
}

func newPeerMAC(key []byte) *peerMAC {
	p := &peerMAC{}
	p.pool.New = func() any { return hmac.New(sha256.New, key) }
	return p
}

// sum appends body's tag to dst.
func (p *peerMAC) sum(dst, body []byte) []byte {
	h := p.pool.Get().(hash.Hash)
	h.Reset()
	h.Write(body)
	dst = h.Sum(dst)
	p.pool.Put(h)
	return dst
}

// pairMACs derives the pair key shared with every replica (self
// included) once, from the cluster master key: HMAC(master, a||0||b)
// with a <= b, so both ends of a link derive the same key.
func pairMACs(self string, ids []string, master []byte) map[string]*peerMAC {
	out := make(map[string]*peerMAC, len(ids))
	for _, peer := range ids {
		a, b := self, peer
		if a > b {
			a, b = b, a
		}
		mac := hmac.New(sha256.New, master)
		mac.Write([]byte(a))
		mac.Write([]byte{0})
		mac.Write([]byte(b))
		out[peer] = newPeerMAC(mac.Sum(nil))
	}
	return out
}

// seal frames body for one destination: body || tag.
func (r *Replica) seal(to string, body []byte) []byte {
	out := make([]byte, len(body), len(body)+macSize)
	copy(out, body)
	return r.macs[to].sum(out, body)
}

// open checks the envelope's tag under the sender's pair key and returns
// the body, or false for an unknown sender, a short payload or a bad tag.
func (r *Replica) open(from string, payload []byte) ([]byte, bool) {
	p, ok := r.macs[from]
	if !ok || len(payload) < macSize {
		return nil, false
	}
	body, tag := payload[:len(payload)-macSize], payload[len(payload)-macSize:]
	var want [macSize]byte
	if !hmac.Equal(p.sum(want[:0], body), tag) {
		return nil, false
	}
	return body, true
}

// encodeBody writes the kind byte and the message into a scratch buffer;
// the caller returns the buffer to the pool once every envelope is sealed.
func encodeBody(msgType string, v wireMsg) *codec.Writer {
	w := scratch.Get().(*codec.Writer)
	w.Reset()
	w.Byte(msgKinds[msgType])
	v.encode(w)
	return w
}

// send encodes v once and seals it for one destination.
func (r *Replica) send(to, msgType string, v wireMsg) {
	w := encodeBody(msgType, v)
	r.net.Send(netsim.Message{From: r.id, To: to, Type: msgType, Payload: r.seal(to, w.Bytes())})
	scratch.Put(w)
}

// broadcast encodes v once and seals a copy for every other replica.
func (r *Replica) broadcast(msgType string, v wireMsg) {
	w := encodeBody(msgType, v)
	for _, id := range r.ids {
		if id == r.id {
			continue
		}
		r.net.Send(netsim.Message{From: r.id, To: id, Type: msgType, Payload: r.seal(id, w.Bytes())})
	}
	scratch.Put(w)
}

// handle authenticates, decodes and dispatches one delivered message.
// Anything that fails the MAC, does not decode exactly, or carries a kind
// that does not match its type is discarded.
func (r *Replica) handle(m netsim.Message) {
	body, ok := r.open(m.From, m.Payload)
	if !ok {
		return // bad MAC: discard (Byzantine sender or corruption)
	}
	kind, msg, err := decodeBody(body)
	if err != nil || kind != msgKinds[m.Type] {
		return
	}
	switch msg := msg.(type) {
	case *Request:
		r.onRequest(*msg)
	case *prePrepareMsg:
		r.onPrePrepare(m.From, *msg)
	case *voteMsg:
		if m.Type == msgPrepare {
			r.onPrepare(*msg)
		} else {
			r.onCommit(*msg)
		}
	case *checkpointMsg:
		r.onCheckpoint(*msg)
	case *viewChangeMsg:
		r.onViewChange(*msg)
	case *newViewMsg:
		r.onNewView(m.From, *msg)
	case *stateReqMsg:
		r.onStateReq(m.From, *msg)
	case *stateRepMsg:
		r.onStateRep(m.From, *msg)
	}
}
