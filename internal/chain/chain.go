// Package chain implements a permissioned blockchain on top of the PBFT
// substrate: hash-chained blocks with Merkle transaction roots, a
// materialized world state per peer, Fabric-style private data collections
// (only a hash on chain; the value distributed to collection members), and
// SharPer-style sharding with two-phase cross-shard transactions.
//
// This is PReVer's integrity layer for federated settings (Research
// Challenge 4): mutually distrustful data managers run peers; updates
// become transactions ordered by PBFT; any participant can audit the
// block chain and prove a transaction's inclusion.
package chain

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"prever/internal/conf"
	"prever/internal/mempool"
	"prever/internal/merkle"
	"prever/internal/netsim"
	"prever/internal/pbft"
	"prever/internal/store"
)

// TxKind is the transaction type.
type TxKind uint8

// Supported transaction kinds.
const (
	TxPut TxKind = iota + 1
	TxDelete
	TxPrivatePut   // public hash, private value held by collection members
	TxCrossPrepare // phase 1 of a cross-shard transaction
	TxCrossCommit  // phase 2: apply the prepared writes
	TxCrossAbort   // phase 2 alternative: discard the prepared writes
	TxPutOnce      // write only if the key is absent (first writer wins)
)

// Tx is one blockchain transaction.
type Tx struct {
	ID         string   `json:"id"`
	Kind       TxKind   `json:"kind"`
	Collection string   `json:"collection,omitempty"` // private collections only
	Key        string   `json:"key,omitempty"`
	Value      []byte   `json:"value,omitempty"`
	ValueHash  [32]byte `json:"valueHash,omitempty"` // private puts
	XID        string   `json:"xid,omitempty"`       // cross-shard tx id
	Writes     []Tx     `json:"writes,omitempty"`    // cross-prepare payload
}

// Block is one chained block of transactions.
type Block struct {
	Height   uint64   `json:"height"`
	PrevHash [32]byte `json:"prev"`
	TxRoot   [32]byte `json:"txroot"`
	Txs      []Tx     `json:"txs"`
	Hash     [32]byte `json:"hash"`
}

func txLeaves(txs []Tx) [][]byte {
	leaves := make([][]byte, len(txs))
	for i, tx := range txs {
		leaves[i] = txBytes(tx)
	}
	return leaves
}

func txRoot(txs []Tx) [32]byte { return leafRoot(txLeaves(txs)) }

func blockHash(b *Block) [32]byte {
	h := sha256.New()
	var height [8]byte
	for i := 0; i < 8; i++ {
		height[i] = byte(b.Height >> (8 * i))
	}
	h.Write(height[:])
	h.Write(b.PrevHash[:])
	h.Write(b.TxRoot[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashValue hashes a private value the way TxPrivatePut expects.
func HashValue(v []byte) [32]byte { return sha256.Sum256(v) }

// Peer is one organization's node: it holds the block chain, the public
// world state, and the private collections it is a member of.
type Peer struct {
	id          string
	collections map[string]bool

	mu        sync.Mutex
	blocks    []Block
	state     *store.KV
	private   map[string]*store.KV // collection -> private state
	pendingP  map[string][]byte    // txID -> private value awaiting commit
	prepared  map[string][]Tx      // xid -> prepared cross-shard writes
	appliedTx map[string]bool      // txID -> already applied (exactly-once)
}

func newPeer(id string, collections []string) *Peer {
	p := &Peer{
		id:          id,
		collections: make(map[string]bool),
		state:       store.NewKV(),
		private:     make(map[string]*store.KV),
		pendingP:    make(map[string][]byte),
		prepared:    make(map[string][]Tx),
		appliedTx:   make(map[string]bool),
	}
	for _, c := range collections {
		p.collections[c] = true
		p.private[c] = store.NewKV()
	}
	return p
}

// ID returns the peer id.
func (p *Peer) ID() string { return p.id }

// Height returns the number of blocks.
func (p *Peer) Height() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.blocks)
}

// Blocks exports a copy of the chain for auditing.
func (p *Peer) Blocks() []Block {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Block, len(p.blocks))
	copy(out, p.blocks)
	return out
}

// Get reads the public world state.
func (p *Peer) Get(key string) ([]byte, error) {
	return p.state.Get(key)
}

// GetPrivate reads a private collection this peer is a member of.
func (p *Peer) GetPrivate(collection, key string) ([]byte, error) {
	p.mu.Lock()
	kv, ok := p.private[collection]
	p.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("chain: peer %s is not a member of collection %q", p.id, collection)
	}
	return kv.Get(key)
}

// StagePrivateValue pre-positions a private value (distributed off-chain
// by the writer) so that when the on-chain hash commits, the peer can
// validate and store it.
func (p *Peer) StagePrivateValue(txID string, value []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cp := make([]byte, len(value))
	copy(cp, value)
	p.pendingP[txID] = cp
}

// applyBatch turns one executed PBFT batch into a block and applies it.
// leaves[i] is txs[i]'s canonical encoding, as it arrived in the batch.
// Transactions whose ID already applied are dropped first: a consensus
// client that times out and retries can commit the same transaction into
// two instances, and this filter is what keeps the chain exactly-once.
// The dedup map is unbounded and keyed only by the executed sequence —
// every peer applies the same instances in the same order, so every peer
// drops the same duplicates and the chains stay identical (a TTL filter
// here would make the drop decision depend on wall-clock timing and let
// replicas diverge).
func (p *Peer) applyBatch(txs []Tx, leaves [][]byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fresh := txs[:0]
	freshLeaves := leaves[:0]
	for i, tx := range txs {
		if tx.ID != "" {
			if p.appliedTx[tx.ID] {
				continue
			}
			p.appliedTx[tx.ID] = true
		}
		fresh = append(fresh, tx)
		freshLeaves = append(freshLeaves, leaves[i])
	}
	if len(fresh) == 0 {
		return
	}
	txs = fresh
	blk := Block{
		Height: uint64(len(p.blocks)),
		TxRoot: leafRoot(freshLeaves),
		Txs:    txs,
	}
	if len(p.blocks) > 0 {
		blk.PrevHash = p.blocks[len(p.blocks)-1].Hash
	}
	blk.Hash = blockHash(&blk)
	p.blocks = append(p.blocks, blk)
	for _, tx := range txs {
		p.applyTxLocked(tx)
	}
}

func (p *Peer) applyTxLocked(tx Tx) {
	switch tx.Kind {
	case TxPut:
		p.state.Put(tx.Key, tx.Value)
	case TxPutOnce:
		if _, err := p.state.Get(tx.Key); err != nil {
			p.state.Put(tx.Key, tx.Value)
		}
	case TxDelete:
		p.state.Delete(tx.Key)
	case TxPrivatePut:
		// On-chain: record the hash publicly so everyone can audit.
		p.state.Put("hash/"+tx.Collection+"/"+tx.Key, tx.ValueHash[:])
		// Members store the value if the staged copy matches the hash.
		if p.collections[tx.Collection] {
			if v, ok := p.pendingP[tx.ID]; ok && HashValue(v) == tx.ValueHash {
				p.private[tx.Collection].Put(tx.Key, v)
			}
			delete(p.pendingP, tx.ID)
		}
	case TxCrossPrepare:
		p.prepared[tx.XID] = tx.Writes
	case TxCrossCommit:
		if writes, ok := p.prepared[tx.XID]; ok {
			for _, w := range writes {
				p.applyTxLocked(w)
			}
			delete(p.prepared, tx.XID)
		}
	case TxCrossAbort:
		delete(p.prepared, tx.XID)
	}
}

// VerifyBlocks audits an exported chain: hash links and transaction roots.
// Returns the height of the first bad block, or -1 if clean.
func VerifyBlocks(blocks []Block) (int, error) {
	var prev [32]byte
	for i := range blocks {
		b := &blocks[i]
		if b.Height != uint64(i) {
			return i, fmt.Errorf("chain: block %d has height %d", i, b.Height)
		}
		if b.PrevHash != prev {
			return i, fmt.Errorf("chain: block %d breaks the hash chain", i)
		}
		if txRoot(b.Txs) != b.TxRoot {
			return i, fmt.Errorf("chain: block %d transaction root mismatch", i)
		}
		if blockHash(b) != b.Hash {
			return i, fmt.Errorf("chain: block %d hash mismatch", i)
		}
		prev = b.Hash
	}
	return -1, nil
}

// ProveTx builds a Merkle inclusion proof for transaction index txIdx of
// block height h, verifiable against the block's TxRoot.
func (p *Peer) ProveTx(height uint64, txIdx int) (merkle.InclusionProof, Tx, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if height >= uint64(len(p.blocks)) {
		return merkle.InclusionProof{}, Tx{}, fmt.Errorf("chain: height %d beyond chain (%d)", height, len(p.blocks))
	}
	blk := p.blocks[height]
	if txIdx < 0 || txIdx >= len(blk.Txs) {
		return merkle.InclusionProof{}, Tx{}, fmt.Errorf("chain: tx index %d out of range", txIdx)
	}
	t := merkle.New()
	for _, leaf := range txLeaves(blk.Txs) {
		t.Append(leaf)
	}
	proof, err := t.ProveInclusion(txIdx, len(blk.Txs))
	if err != nil {
		return merkle.InclusionProof{}, Tx{}, err
	}
	return proof, blk.Txs[txIdx], nil
}

// VerifyTxProof checks a transaction inclusion proof against a block.
func VerifyTxProof(proof merkle.InclusionProof, tx Tx, blk Block) error {
	return merkle.VerifyInclusion(proof, txBytes(tx), merkle.Hash(blk.TxRoot))
}

// Shard is one PBFT cluster of peers ordering a partition of the key
// space. Submission is batch-first: transactions enter a mempool, a
// leader-side batcher drains them into batched PBFT requests with
// pipelined in-flight instances, and per-transaction results come back
// asynchronously (SubmitAsync / SubmitBatch).
type Shard struct {
	Name     string
	nonce    string // boot nonce: disambiguates client identity and tx IDs across restarts
	durable  bool
	peers    []*Peer
	replicas []*pbft.Replica
	client   *pbft.Client
	pool     *mempool.Pool
	batcher  *mempool.Batcher
	seq      atomic.Uint64
	timeout  time.Duration

	statsMu sync.Mutex
	stats   Stats
}

// ShardConfig configures one shard.
type ShardConfig struct {
	Name        string
	F           int                 // tolerated Byzantine peers (n = 3f+1)
	Collections map[string][]string // collection -> member peer ids
	PBFT        pbft.Options
	Timeout     time.Duration  // per-transaction commit timeout
	Mempool     mempool.Config // zero fields default from conf.Snapshot
	// DataDir, when set, makes every peer's PBFT replica crash-durable:
	// consensus state is journaled to a WAL under DataDir/<peerID> and
	// the peer's chain is snapshot-restored on reopen. Empty means
	// in-memory (state dies with the process).
	DataDir string
	// SnapshotEvery is the executed-sequence cadence between durable
	// snapshots. Zero defaults from conf.Snapshot().SnapshotEvery.
	SnapshotEvery uint64
}

// NewShard builds a shard of 3F+1 peers on the network.
func NewShard(net *netsim.Network, cfg ShardConfig) (*Shard, error) {
	if cfg.F < 1 {
		return nil, errors.New("chain: f must be >= 1")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Second
	}
	n := 3*cfg.F + 1
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%s/peer%d", cfg.Name, i)
	}
	memberOf := func(peerID string) []string {
		var out []string
		for coll, members := range cfg.Collections {
			for _, m := range members {
				if m == peerID {
					out = append(out, coll)
				}
			}
		}
		return out
	}
	s := &Shard{Name: cfg.Name, nonce: bootNonce(), durable: cfg.DataDir != "", timeout: cfg.Timeout}
	for _, id := range ids {
		peer := newPeer(id, memberOf(id))
		s.peers = append(s.peers, peer)
		applier := func(_ uint64, batch []pbft.Request) {
			// Each op is a transaction's canonical encoding, computed
			// once at SubmitAsync; it becomes the block's Merkle leaf
			// as is, so no peer re-encodes it.
			txs := make([]Tx, 0, len(batch))
			leaves := make([][]byte, 0, len(batch))
			decode := func(op []byte) {
				if tx, err := parseTx(op); err == nil {
					txs = append(txs, tx)
					leaves = append(leaves, op)
				}
			}
			for _, req := range batch {
				// A request is either one mempool batch (fanned back out
				// into its transactions) or a bare single transaction from
				// the synchronous path.
				if ops, ok := pbft.DecodeBatch(req.Op); ok {
					for _, op := range ops {
						decode(op)
					}
				} else {
					decode(req.Op)
				}
			}
			if len(txs) > 0 {
				peer.applyBatch(txs, leaves)
			}
		}
		var replica *pbft.Replica
		var err error
		if cfg.DataDir != "" {
			snapEvery := cfg.SnapshotEvery
			if snapEvery == 0 {
				snapEvery = conf.SnapshotEvery()
			}
			// Peer IDs like "shard0/peer3" nest naturally as directories.
			replica, err = pbft.NewDurableReplica(net, id, ids, cfg.F, applier, cfg.PBFT, pbft.DurableOptions{
				Dir:           filepath.Join(cfg.DataDir, id),
				App:           peer,
				SnapshotEvery: snapEvery,
				SegmentBytes:  conf.WALSegmentBytes(),
			})
		} else {
			replica, err = pbft.NewReplica(net, id, ids, cfg.F, applier, cfg.PBFT)
		}
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, replica)
	}
	if cfg.DataDir != "" {
		// Recovered replicas replayed their WALs to wherever each one's
		// fsync happened to land at kill time, so their execution points
		// can differ by a few sequences. Sync state-transfers the delta
		// and re-votes certified-but-unexecuted instances; without it a
		// lagging replica converges only if fresh traffic happens to
		// trigger the transfer path.
		for _, r := range s.replicas {
			r.Sync()
		}
	}
	// The client name and tx IDs carry the boot nonce: a restarted process
	// reuses the same client identity namespace otherwise, and its
	// restarted sequence counter / tx counter would collide with the
	// recovered dedup state (executedR, appliedTx) — silently dropping
	// fresh transactions as "already executed".
	client, err := pbft.NewClient(net, s.replicas, "chain/"+cfg.Name+"/"+s.nonce, pbft.ClientOptions{})
	if err != nil {
		return nil, err
	}
	s.client = client
	s.pool = mempool.NewPool(cfg.Mempool)
	s.batcher = mempool.NewBatcher(s.pool, func(ops [][]byte) func() error {
		// Start assigns the client sequence number and hands the batch to
		// the primary before returning, fixing the commit order of
		// pipelined batches at dispatch time.
		p := s.client.StartBatch(ops)
		return func() error { return p.Wait(s.timeout) }
	})
	return s, nil
}

// bootNonce returns a short random token unique to this process
// incarnation.
func bootNonce() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("chain: boot nonce: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Close stops the shard's batcher and fails any queued transactions with
// an error, then (for durable shards) syncs and closes every replica's
// journal. The consensus replicas keep running in memory (they belong to
// the network); only the submission front end and storage shut down.
func (s *Shard) Close() error {
	s.batcher.Stop()
	err := s.pool.Close()
	if s.durable {
		for _, r := range s.replicas {
			if cerr := r.CloseStorage(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// Peers returns the shard's peers.
func (s *Shard) Peers() []*Peer { return s.peers }

// Replicas returns the shard's PBFT replicas, for fault injection in
// tests and benchmarks (Crash/Restart/Sync).
func (s *Shard) Replicas() []*pbft.Replica { return s.replicas }

// SubmitPrivate distributes a private value to collection members
// off-chain, then orders the on-chain hash through the mempool like any
// other transaction: the returned channel resolves when the hash
// transaction's batch commits.
func (s *Shard) SubmitPrivate(collection, key string, value []byte) <-chan Result {
	tx := Tx{
		ID:         fmt.Sprintf("%s-%s-ptx-%d", s.Name, s.nonce, s.seq.Add(1)),
		Kind:       TxPrivatePut,
		Collection: collection,
		Key:        key,
		ValueHash:  HashValue(value),
	}
	for _, p := range s.peers {
		if p.collections[collection] {
			p.StagePrivateValue(tx.ID, value)
		}
	}
	return s.SubmitAsync(tx)
}

// Sharded is a SharPer-style multi-shard chain: the key space is
// partitioned across shards; cross-shard transactions run a two-phase
// prepare/commit with the client as coordinator, each phase ordered by the
// involved shards' consensus.
type Sharded struct {
	shards []*Shard
	nonce  string // boot nonce: keeps cross-shard XIDs from colliding with recovered prepares
	xseq   atomic.Uint64
}

// NewSharded groups shards into one logical chain.
func NewSharded(shards ...*Shard) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, errors.New("chain: need at least one shard")
	}
	return &Sharded{shards: shards, nonce: bootNonce()}, nil
}

// Shards returns the shard list.
func (c *Sharded) Shards() []*Shard { return c.shards }

// ShardFor maps a key to its home shard.
func (c *Sharded) ShardFor(key string) *Shard {
	h := sha256.Sum256([]byte(key))
	idx := int(h[0]) % len(c.shards)
	return c.shards[idx]
}

// SubmitAsync routes a single-shard transaction to its home shard's
// mempool and returns that shard's result channel.
func (c *Sharded) SubmitAsync(tx Tx) <-chan Result {
	return c.ShardFor(tx.Key).SubmitAsync(tx)
}

// SubmitPrivate routes a private put to the key's home shard.
func (c *Sharded) SubmitPrivate(collection, key string, value []byte) <-chan Result {
	return c.ShardFor(key).SubmitPrivate(collection, key, value)
}

// SubmitCross atomically applies writes that span multiple shards:
// phase 1 orders a prepare (carrying each shard's writes) on every
// involved shard; phase 2 orders the commit. If any prepare fails, aborts
// are sent to the prepared shards.
func (c *Sharded) SubmitCross(writes []Tx) error {
	if len(writes) == 0 {
		return nil
	}
	xid := fmt.Sprintf("xtx-%s-%d", c.nonce, c.xseq.Add(1))
	// Group writes by home shard.
	byShard := make(map[*Shard][]Tx)
	for _, w := range writes {
		s := c.ShardFor(w.Key)
		byShard[s] = append(byShard[s], w)
	}
	// Phase 1: prepare everywhere.
	var preparedShards []*Shard
	for s, ws := range byShard {
		err := submitWait(s, Tx{Kind: TxCrossPrepare, XID: xid, Writes: ws})
		if err != nil {
			for _, ps := range preparedShards {
				_ = submitWait(ps, Tx{Kind: TxCrossAbort, XID: xid})
			}
			return fmt.Errorf("chain: cross-shard prepare failed on %s: %w", s.Name, err)
		}
		preparedShards = append(preparedShards, s)
	}
	// Phase 2: commit everywhere.
	var firstErr error
	for s := range byShard {
		if err := submitWait(s, Tx{Kind: TxCrossCommit, XID: xid}); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("chain: cross-shard commit failed on %s: %w", s.Name, err)
		}
	}
	return firstErr
}
