package pbft

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"prever/internal/codec"
	"prever/internal/netsim"
)

func testBatch() []Request {
	return []Request{
		{Client: "chain/s0/abc", Seq: 1, Op: []byte("op-1")},
		{Client: "chain/s0/abc", Seq: 1 << 40, Op: bytes.Repeat([]byte{0xff}, 300)},
		{Client: "", Seq: 0},
	}
}

// testMessages has one populated value of every message type, keyed by
// netsim type.
func testMessages() map[string]wireCodec {
	d := digestOf(testBatch())
	return map[string]wireCodec{
		msgRequest:    &Request{Client: "c", Seq: 7, Op: []byte("x")},
		msgPrePrepare: &prePrepareMsg{View: 3, Seq: 129, Digest: d, Batch: testBatch()},
		msgPrepare:    &voteMsg{View: 3, Seq: 129, Digest: d, Replica: "p1"},
		msgCommit:     &voteMsg{View: 3, Seq: 300, Digest: d, Replica: "p2"},
		msgCheckpoint: &checkpointMsg{Seq: 256, State: d, Replica: "p3"},
		msgViewChange: &viewChangeMsg{NewView: 4, Stable: 128, Exec: 140, Replica: "p1", Prepared: []preparedEntry{
			{Seq: 140, View: 3, Digest: d, Batch: testBatch()},
			{Seq: 141, View: 2, Digest: digestOf(nil)},
		}},
		msgNewView: &newViewMsg{View: 4, NextSeq: 142, PrePrepares: []prePrepareMsg{
			{View: 4, Seq: 140, Digest: d, Batch: testBatch()},
			{View: 4, Seq: 141, Digest: digestOf(nil)},
		}},
		msgStateReq: &stateReqMsg{Have: 17, View: 2},
		msgStateRep: &stateRepMsg{Replica: "p0", View: 5,
			Entries: []execEntry{{Seq: 17, Digest: d, Batch: testBatch()}, {Seq: 18, Digest: digestOf(nil)}},
			Snap: &stateImage{ExecSeq: 19, App: []byte("app-state"), Executed: []reqID{
				{client: "a", seq: 1}, {client: "a", seq: 2}, {client: "b", seq: 1},
			}},
		},
	}
}

// TestWireRoundTrip: every message type decodes to the value encoded,
// and re-encodes to the same bytes.
func TestWireRoundTrip(t *testing.T) {
	msgs := testMessages()
	if len(msgs) != len(msgKinds) {
		t.Fatalf("%d test messages for %d message types", len(msgs), len(msgKinds))
	}
	for typ, m := range msgs {
		w := encodeBody(typ, m)
		body := append([]byte(nil), w.Bytes()...)
		kind, got, err := decodeBody(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if kind != msgKinds[typ] || !reflect.DeepEqual(got, m) {
			t.Fatalf("%s: round trip\n got kind %d %+v\nwant kind %d %+v", typ, kind, got, msgKinds[typ], m)
		}
		w.Reset()
		w.Byte(body[0])
		got.encode(w)
		if !bytes.Equal(w.Bytes(), body) {
			t.Fatalf("%s: re-encoding differs", typ)
		}
		// Every strict prefix is truncated; any extra byte is trailing.
		for n := 0; n < len(body); n++ {
			if _, _, err := decodeBody(body[:n]); err == nil {
				t.Fatalf("%s: %d-byte prefix of %d decoded", typ, n, len(body))
			}
		}
		if _, _, err := decodeBody(append(body, 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", typ)
		}
	}
}

func TestDigestMatchesSingleRequestBatch(t *testing.T) {
	req := Request{Client: "c", Seq: 1, Op: []byte("x")}
	w := codec.NewWriter(0)
	encodeBatch(w, []Request{req})
	if got, want := digestOf([]Request{req}), Digest(sha256.Sum256(w.Bytes())); got != want {
		t.Fatal("digest is not the hash of the batch encoding")
	}
}

func TestRecordAndSnapshotRoundTrip(t *testing.T) {
	d := digestOf(testBatch())
	for _, rec := range []pbRecord{
		{K: pbView, View: 9, Seq: 400},
		{K: pbPP, View: 2, Seq: 12, Digest: d, Batch: testBatch()},
		{K: pbCM, View: 2, Seq: 12, Digest: d},
		{K: pbEX, Seq: 12, Digest: d, Batch: testBatch()},
	} {
		got, err := decodeRecord(rec.encode())
		if err != nil {
			t.Fatalf("record %d: %v", rec.K, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record round trip\n got %+v\nwant %+v", got, rec)
		}
	}
	snap := pbSnapshot{
		View: 3, ExecSeq: 512, Stable: 384,
		Executed: []reqID{{client: "a", seq: 1}, {client: "b", seq: 9}},
		App:      []byte("app"),
		Insts: []pbInstSnap{
			{Seq: 512, Digest: d, Batch: testBatch(), PrePrepared: true},
			{Seq: 513, Digest: d, Batch: testBatch(), PrePrepared: true, Committed: true, CertSet: true, CertView: 3, CertDigest: d, CertBatch: testBatch()},
		},
	}
	got, err := decodeSnapshot(snap.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("snapshot round trip\n got %+v\nwant %+v", got, snap)
	}
}

func TestBatchRejectsMalformed(t *testing.T) {
	ok := EncodeBatch([][]byte{[]byte("a"), []byte("bc")})
	for name, v := range map[string][]byte{
		"trailing":  append(append([]byte(nil), ok...), 0),
		"truncated": ok[:len(ok)-1],
		"oversized": append([]byte("pbB2"), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"overlong":  append([]byte("pbB2"), 0x81, 0x00, 0x01, 'a'),
		"v1 json":   []byte(`pbB1["YQ=="]`),
	} {
		if _, isBatch := DecodeBatch(v); isBatch {
			t.Errorf("%s batch decoded", name)
		}
	}
}

// TestEnvelopeByzantine: tampered or misaddressed envelopes are
// discarded — at open, and end to end through the network.
func TestEnvelopeByzantine(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	p0, p1, p2 := c.replicas[0], c.replicas[1], c.replicas[2]
	w := encodeBody(msgPrePrepare, prePrepareMsg{View: 0, Seq: 0, Digest: digestOf(testBatch()), Batch: testBatch()})
	body := append([]byte(nil), w.Bytes()...)
	good := p0.seal(p1.ID(), body)
	if _, ok := p1.open(p0.ID(), good); !ok {
		t.Fatal("well-formed envelope rejected")
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	flippedBody := append([]byte(nil), good...)
	flippedBody[0] ^= 1
	cases := map[string]struct {
		from    string
		payload []byte
	}{
		"flipped tag bit":    {p0.ID(), flipped},
		"flipped body bit":   {p0.ID(), flippedBody},
		"truncated":          {p0.ID(), good[:len(good)-1]},
		"shorter than a tag": {p0.ID(), good[:macSize-1]},
		"other pair's key":   {p0.ID(), p2.seal(p1.ID(), body)},
		"sealed for p2":      {p0.ID(), p0.seal(p2.ID(), body)},
		"unknown sender":     {"mallory", good},
	}
	for name, tc := range cases {
		if _, ok := p1.open(tc.from, tc.payload); ok {
			t.Errorf("%s: envelope accepted", name)
		}
		c.net.Send(netsim.Message{From: tc.from, To: p1.ID(), Type: msgPrePrepare, Payload: tc.payload})
	}
	// A correctly sealed body relabelled to another type is discarded.
	c.net.Send(netsim.Message{From: p0.ID(), To: p1.ID(), Type: msgCommit, Payload: good})
	time.Sleep(50 * time.Millisecond)
	p1.mu.Lock()
	inst := p1.insts[0]
	p1.mu.Unlock()
	if inst != nil {
		t.Fatalf("a discarded envelope reached the protocol: %+v", inst)
	}
	// The cluster still works afterwards.
	if err := p0.Submit("client", 1, []byte("op"), 3*time.Second); err != nil {
		t.Fatal(err)
	}
}

// checkCanonical fails when data decoded but re-encodes differently.
func checkCanonical(t *testing.T, data, again []byte) {
	t.Helper()
	if !bytes.Equal(data, again) {
		t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", data, again)
	}
}

func FuzzDecodeMessage(f *testing.F) {
	for typ, m := range testMessages() {
		w := encodeBody(typ, m)
		f.Add(append([]byte(nil), w.Bytes()...))
	}
	f.Add([]byte{})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, body []byte) {
		kind, m, err := decodeBody(body)
		if err != nil {
			return
		}
		w := codec.NewWriter(len(body))
		w.Byte(kind)
		m.encode(w)
		checkCanonical(t, body, w.Bytes())
	})
}

func FuzzDecodeRecord(f *testing.F) {
	f.Add((&pbRecord{K: pbPP, View: 1, Seq: 2, Digest: digestOf(testBatch()), Batch: testBatch()}).encode())
	f.Add((&pbRecord{K: pbView, View: 3, Seq: 4}).encode())
	f.Add([]byte(`{"k":"pp","v":1,"s":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		checkCanonical(t, data, rec.encode())
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	snap := pbSnapshot{View: 1, ExecSeq: 2, Executed: []reqID{{client: "a", seq: 1}}, App: []byte("x"),
		Insts: []pbInstSnap{{Seq: 2, Digest: digestOf(testBatch()), Batch: testBatch(), PrePrepared: true}}}
	f.Add(snap.encode())
	f.Add([]byte(`{"format":"prever/pbft/snap/v1","view":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		checkCanonical(t, data, s.encode())
	})
}

func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch([][]byte{[]byte("a"), nil, []byte("op-3")}))
	f.Add(EncodeBatch(nil))
	f.Add([]byte("pbB2\x02\x01a"))
	f.Fuzz(func(t *testing.T, v []byte) {
		ops, ok := DecodeBatch(v)
		if !ok {
			return
		}
		checkCanonical(t, v, EncodeBatch(ops))
	})
}

// TestMACStateConcurrentSenders: the pooled keyed MAC states are shared
// by every goroutine that seals or opens for a peer; concurrent use must
// neither race nor mix states.
func TestMACStateConcurrentSenders(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	p0, p1 := c.replicas[0], c.replicas[1]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				body := []byte(fmt.Sprintf("body-%d-%d", g, i))
				got, ok := p1.open(p0.ID(), p0.seal(p1.ID(), body))
				if !ok || !bytes.Equal(got, body) {
					t.Errorf("goroutine %d message %d: sealed envelope did not open", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
