package pbft

import (
	"encoding/hex"
	"strings"
	"testing"
)

// TestDurableBytesPinned pins the durable formats byte for byte: one
// journal record of each kind and one snapshot carrying an in-flight
// instance with a prepared certificate must encode to the bytes the
// prever/pbft/wal/v2 and prever/pbft/snap/v2 formats were released
// with. Round-trip tests cannot see a change made to encoder and
// decoder together; a data directory written by an earlier build can.
func TestDurableBytesPinned(t *testing.T) {
	d1 := Digest{0: 0x11, 31: 0x1f}
	d2 := Digest{0: 0x22, 31: 0x2f}
	batch := []Request{
		{Client: "chain/s0/a", Seq: 1, Op: []byte("op-1")},
		{Client: "c", Seq: 300, Op: []byte{0, 0xff}},
	}
	// Hex of the digests and of the batch framings above.
	zero := strings.Repeat("00", 32)
	h1 := "11" + strings.Repeat("00", 30) + "1f"
	h2 := "22" + strings.Repeat("00", 30) + "2f"
	req1 := "0a636861696e2f73302f61" + "01" + "046f702d31" // client, seq, op
	req2 := "0163" + "ac02" + "0200ff"
	for _, tc := range []struct {
		name string
		got  []byte
		want string
	}{
		{"view record", (&pbRecord{K: pbView, View: 9, Seq: 400}).encode(),
			"02" + "01" + "09" + "9003" + zero + "00"},
		{"pre-prepare record", (&pbRecord{K: pbPP, View: 2, Seq: 130, Digest: d1, Batch: batch}).encode(),
			"02" + "02" + "02" + "8201" + h1 + "02" + req1 + req2},
		{"certificate record", (&pbRecord{K: pbCM, View: 2, Seq: 130, Digest: d1}).encode(),
			"02" + "03" + "02" + "8201" + h1 + "00"},
		{"executed record", (&pbRecord{K: pbEX, Seq: 129, Digest: d2, Batch: batch[:1]}).encode(),
			"02" + "04" + "00" + "8101" + h2 + "01" + req1},
		{"snapshot", (&pbSnapshot{
			View: 3, ExecSeq: 512, Stable: 384,
			Executed: []reqID{{client: "a", seq: 1}, {client: "b", seq: 9}},
			App:      []byte("app"),
			Insts: []pbInstSnap{
				{Seq: 512, Digest: d1, Batch: batch, PrePrepared: true},
				{Seq: 513, Digest: d2, Batch: batch[1:], PrePrepared: true, Committed: true,
					CertSet: true, CertView: 2, CertDigest: d2, CertBatch: batch[1:]},
			},
		}).encode(),
			"13" + hex.EncodeToString([]byte("prever/pbft/snap/v2")) +
				"03" + "8004" + "8003" + // view, exec seq, stable
				"02" + "016101" + "016209" + // executed ids
				"03617070" + // app
				"02" + // instances
				"8004" + h1 + "02" + req1 + req2 + "010000" + "00" + zero + "00" +
				"8104" + h2 + "01" + req2 + "010101" + "02" + h2 + "01" + req2},
	} {
		if got := hex.EncodeToString(tc.got); got != tc.want {
			t.Errorf("%s encoding changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
