package chain

import (
	"fmt"

	"prever/internal/codec"
	"prever/internal/merkle"
)

// A transaction's canonical bytes are its codec encoding: ID, kind,
// collection, key, value, value hash, cross-shard id, then the nested
// writes, in that order. The codec's strict decoding gives every
// transaction exactly one encoding, so the bytes a shard computes once
// at submission are the Merkle leaf every peer hashes, and an auditor
// re-encoding a decoded transaction gets the same leaf.

// minTxSize is the smallest transaction encoding: five empty strings
// and blobs, the kind, the value hash and an empty write list.
const minTxSize = 7 + 32

func (tx *Tx) encode(w *codec.Writer) {
	w.String(tx.ID)
	w.Byte(byte(tx.Kind))
	w.String(tx.Collection)
	w.String(tx.Key)
	w.Blob(tx.Value)
	w.Digest(tx.ValueHash)
	w.String(tx.XID)
	codec.WriteList(w, tx.Writes, (*Tx).encode)
}

func (tx *Tx) decode(rd *codec.Reader) {
	tx.ID = rd.String()
	tx.Kind = TxKind(rd.Byte())
	tx.Collection = rd.String()
	tx.Key = rd.String()
	tx.Value = rd.Blob()
	tx.ValueHash = rd.Digest()
	tx.XID = rd.String()
	tx.Writes = codec.ReadList(rd, minTxSize, (*Tx).decode)
}

// txBytes returns the transaction's canonical encoding.
func txBytes(tx Tx) []byte {
	w := codec.NewWriter(minTxSize + len(tx.ID) + len(tx.Key) + len(tx.Value) + 16)
	tx.encode(w)
	return w.Bytes()
}

// parseTx decodes one canonical transaction encoding. The transaction's
// byte fields alias b.
func parseTx(b []byte) (Tx, error) {
	var tx Tx
	rd := codec.NewReader(b)
	tx.decode(rd)
	if err := rd.Done(); err != nil {
		return Tx{}, fmt.Errorf("chain: decoding transaction: %w", err)
	}
	return tx, nil
}

// leafRoot is the Merkle root over transaction encodings.
func leafRoot(leaves [][]byte) [32]byte {
	t := merkle.New()
	for _, b := range leaves {
		t.Append(b)
	}
	return [32]byte(t.Root())
}

func (b *Block) encode(w *codec.Writer) {
	w.Uvarint(b.Height)
	w.Digest(b.PrevHash)
	w.Digest(b.TxRoot)
	w.Digest(b.Hash)
	codec.WriteList(w, b.Txs, (*Tx).encode)
}

// minBlockSize is the smallest block encoding: height, three digests and
// an empty transaction list.
const minBlockSize = 2 + 3*32

func (b *Block) decode(rd *codec.Reader) {
	b.Height = rd.Uvarint()
	b.PrevHash = rd.Digest()
	b.TxRoot = rd.Digest()
	b.Hash = rd.Digest()
	b.Txs = codec.ReadList(rd, minTxSize, (*Tx).decode)
}
