package chain

import (
	"fmt"

	"prever/internal/codec"
	"prever/internal/store"
)

// A Peer's durable image is its block chain: world state, private-
// collection hashes, prepared cross-shard writes, and the applied-
// transaction dedup set are all deterministic replays of it, so only the
// blocks are stored and everything else is rebuilt (and re-verified) on
// Restore. The image is the format string, then the block count and each
// block in the codec framing.
const peerSnapFormat = "prever/chain/peer/v2"

// Snapshot encodes the peer's chain for a consensus-layer snapshot
// (wal.Snapshotter). Private collection VALUES are not included: they
// live off-chain by design (only their hashes are chained) and must be
// redistributed by their writers after a disk recovery.
func (p *Peer) Snapshot() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := codec.NewWriter(4096)
	w.String(peerSnapFormat)
	codec.WriteList(w, p.blocks, (*Block).encode)
	return w.Bytes(), nil
}

// Restore replaces the peer's state with a snapshot: the chain is
// re-verified (hash links, transaction roots) and every block is
// re-applied, rebuilding world state, prepared cross-shard writes, and
// the exactly-once dedup set. A corrupt or tampered snapshot, or one in
// another format, is rejected before any state changes.
func (p *Peer) Restore(data []byte) error {
	rd := codec.NewReader(data)
	if f := rd.String(); f != peerSnapFormat {
		return fmt.Errorf("chain: peer snapshot format %s found, want %s: refusing to read it", codec.ForeignFormat(data, "unlabelled JSON"), peerSnapFormat)
	}
	blocks := codec.ReadList(rd, minBlockSize, (*Block).decode)
	if err := rd.Done(); err != nil {
		return fmt.Errorf("chain: decoding peer snapshot: %w", err)
	}
	if bad, err := VerifyBlocks(blocks); err != nil {
		return fmt.Errorf("chain: snapshot chain invalid at block %d: %w", bad, err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocks = blocks
	p.state = store.NewKV()
	for coll := range p.private {
		p.private[coll] = store.NewKV()
	}
	p.pendingP = make(map[string][]byte)
	p.prepared = make(map[string][]Tx)
	p.appliedTx = make(map[string]bool)
	for i := range p.blocks {
		for _, tx := range p.blocks[i].Txs {
			if tx.ID != "" {
				p.appliedTx[tx.ID] = true
			}
			p.applyTxLocked(tx)
		}
	}
	return nil
}
