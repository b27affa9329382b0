package chain

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prever/internal/netsim"
	"prever/internal/wal"
)

func testTxs() []Tx {
	return []Tx{
		{ID: "s0-abc-tx-1", Kind: TxPut, Key: "k1", Value: []byte("v1")},
		{ID: "s0-abc-tx-2", Kind: TxDelete, Key: "k1"},
		{ID: "s0-abc-ptx-3", Kind: TxPrivatePut, Collection: "collA", Key: "pk", ValueHash: HashValue([]byte("secret"))},
		{Kind: TxCrossPrepare, XID: "xtx-1", Writes: []Tx{
			{Kind: TxPut, Key: "a", Value: bytes.Repeat([]byte{0}, 200)},
			{Kind: TxCrossPrepare, XID: "nested", Writes: []Tx{{Kind: TxPutOnce, Key: "b", Value: []byte("x")}}},
		}},
		{Kind: TxCrossCommit, XID: "xtx-1"},
		{},
	}
}

// TestTxCanonicalRoundTrip: a transaction decodes to itself, its bytes
// re-encode identically, and any truncation or trailing byte is refused.
func TestTxCanonicalRoundTrip(t *testing.T) {
	for _, tx := range testTxs() {
		b := txBytes(tx)
		got, err := parseTx(b)
		if err != nil {
			t.Fatalf("%+v: %v", tx, err)
		}
		if !reflect.DeepEqual(got, tx) {
			t.Fatalf("round trip\n got %+v\nwant %+v", got, tx)
		}
		if !bytes.Equal(txBytes(got), b) {
			t.Fatalf("%+v: re-encoding differs", tx)
		}
		for n := 0; n < len(b); n++ {
			if _, err := parseTx(b[:n]); err == nil {
				t.Fatalf("%d-byte prefix of %d decoded", n, len(b))
			}
		}
		if _, err := parseTx(append(b, 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
}

func TestPeerSnapshotRoundTrip(t *testing.T) {
	p := newPeer("p0", nil)
	txs := testTxs()
	p.applyBatch(txs[:3], txLeaves(txs[:3]))
	p.applyBatch(txs[3:], txLeaves(txs[3:]))
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q := newPeer("p1", nil)
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Blocks(), p.Blocks()) {
		t.Fatal("restored chain differs")
	}
	again, err := q.Snapshot()
	if err != nil || !bytes.Equal(again, snap) {
		t.Fatalf("restored peer snapshots differently (err %v)", err)
	}
	if err := q.Restore(append(snap, 0)); err == nil {
		t.Fatal("snapshot with a trailing byte restored")
	}
	if err := q.Restore([]byte(`{"format":"prever/chain/peer/v1","blocks":[]}`)); err == nil || !strings.Contains(err.Error(), "prever/chain/peer/v1 found, want prever/chain/peer/v2") {
		t.Fatalf("v1 peer snapshot: err = %v, want a refusal naming both formats", err)
	}
}

// TestStaleDataDirRefused: a data directory written by the JSON (v1)
// formats is refused at open with an error naming what was found and
// what this build reads. The directory is built here, through the WAL,
// so no binary fixture is checked in.
func TestStaleDataDirRefused(t *testing.T) {
	records := []map[string]any{
		{"k": "pp", "v": 0, "s": 0, "b": []map[string]any{{"client": "c", "seq": 1, "op": []byte("{}")}}},
		{"k": "cm", "v": 0, "s": 0},
		{"k": "ex", "s": 0},
	}
	for _, tc := range []struct {
		name     string
		snapshot bool
		want     string
	}{
		{"snapshot and records", true, "snapshot format prever/pbft/snap/v1 found, want prever/pbft/snap/v2"},
		{"records only", false, "journal record format prever/pbft/wal/v1 (JSON) found, want prever/pbft/wal/v2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log, _, err := wal.Open(filepath.Join(dir, "s0", "peer0"), wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.snapshot {
				snap, _ := json.Marshal(map[string]any{"format": "prever/pbft/snap/v1", "view": 0, "execSeq": 0, "stable": 0})
				if err := log.Snapshot(snap); err != nil {
					t.Fatal(err)
				}
			}
			for _, rec := range records {
				b, _ := json.Marshal(rec)
				if err := log.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
			net := netsim.New(netsim.Config{})
			defer net.Close()
			s, err := NewShard(net, durableShardCfg(dir))
			if err == nil {
				s.Close()
				t.Fatal("shard opened a v1 data directory")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

func FuzzDecodeTx(f *testing.F) {
	for _, tx := range testTxs() {
		f.Add(txBytes(tx))
	}
	f.Add([]byte(`{"id":"t","kind":1,"key":"k"}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		tx, err := parseTx(b)
		if err != nil {
			return
		}
		if again := txBytes(tx); !bytes.Equal(again, b) {
			t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", b, again)
		}
	})
}

func FuzzDecodePeerSnapshot(f *testing.F) {
	p := newPeer("p0", nil)
	txs := testTxs()
	p.applyBatch(txs, txLeaves(txs))
	snap, err := p.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte(`{"format":"prever/chain/peer/v1","blocks":[]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		q := newPeer("q", nil)
		if q.Restore(b) != nil {
			return
		}
		again, err := q.Snapshot()
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("accepted snapshot is not canonical (err %v)", err)
		}
	})
}
