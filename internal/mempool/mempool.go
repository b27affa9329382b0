// Package mempool is the pending pool in front of the consensus
// substrates (paxos, pbft, the sharded chain): producers add operations,
// a leader-side Batcher drains them into batched consensus proposals with
// pipelined in-flight instances, and per-operation acks are demultiplexed
// back to the producers when a batch commits.
//
// Three properties the rest of the system leans on:
//
//   - Duplicate suppression. An op whose ID is already pending attaches to
//     the existing entry (one proposal, many acks); an op whose ID executed
//     within the dedup TTL is acked immediately. Both survive
//     failover-client retries: a retried op is never proposed twice while
//     the pool remembers it (dusk dupemap-style TTL filter).
//   - Admission control. The pool holds at most Cap unresolved ops
//     (queued + in flight); beyond that Add returns ErrFull. This is the
//     system's first overload shedding point — a caller that sees ErrFull
//     backs off instead of growing an unbounded queue.
//   - Per-lane ordering. Ops are queued on key-hashed lanes (fnv-1a, see
//     LaneIndex) and each lane drains FIFO, so two ops with the same lane
//     key are always proposed — and, with in-order dispatch, applied — in
//     submission order.
package mempool

import (
	"errors"
	"hash/fnv"
	"sync"
	"time"

	"prever/internal/conf"
)

// Op is one operation awaiting consensus.
type Op struct {
	// ID identifies the op for duplicate suppression; it must be unique
	// per logical operation (retries reuse it).
	ID string
	// Lane is the ordering key: ops with equal Lane values are proposed in
	// submission order. Typically the producer or the row key.
	Lane string
	// Data is the opaque payload handed to consensus.
	Data []byte
}

// LaneIndex maps an ordering key onto one of width lanes with fnv-1a.
func LaneIndex(key string, width int) int {
	if width <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(width))
}

// Errors returned by Add (directly or through the ack callback).
var (
	// ErrFull reports that the pool is at its admission cap.
	ErrFull = errors.New("mempool: pool full")
	// ErrClosed reports that the pool was closed.
	ErrClosed = errors.New("mempool: pool closed")
	// ErrDuplicate reports that the op's ID already executed within the
	// dedup TTL: the original committed, so the add is acked with this
	// sentinel instead of being proposed again. It marks success with a
	// flag, not failure — callers branch on it to mean "already
	// committed", and the HTTP layer maps it to 409.
	ErrDuplicate = errors.New("mempool: duplicate op (already executed)")
)

// Config sizes a Pool and its Batcher. NewPool resolves it by
// conf.Config.WithDefaults: zero or negative fields take conf.Defaults().
// Cap, BatchSize, FlushInterval and MaxInFlight can be retuned on a live
// pool (Retune); Lanes and DedupTTL are structural (the lane slices and
// the TTL filter are built once).
type Config struct {
	Cap           int           // admission bound on unresolved ops
	Lanes         int           // key-hashed lane count
	BatchSize     int           // max ops per consensus instance
	FlushInterval time.Duration // partial-batch linger
	MaxInFlight   int           // pipelined consensus instances
	DedupTTL      time.Duration // executed-ID memory window
}

// FromConf is the pool slice of a server configuration.
func FromConf(c conf.Config) Config {
	return Config{
		Cap:           c.MempoolCap,
		Lanes:         c.Lanes,
		BatchSize:     c.BatchSize,
		FlushInterval: c.FlushInterval,
		MaxInFlight:   c.MaxInFlight,
		DedupTTL:      c.DedupTTL,
	}
}

// opState tracks one unresolved op: its ack fan-out and whether it is
// still queued (false once drained into an in-flight batch).
type opState struct {
	acks   []func(error)
	queued bool
}

// PoolStats is a snapshot of the pool's admission and dedup counters.
// JSON tags make it part of the unified stats shape internal/api serves
// at /stats.
type PoolStats struct {
	// Depth is the number of ops queued in lanes (not yet drained).
	Depth int `json:"depth"`
	// InFlight is the number of ops drained into proposals that have not
	// resolved yet.
	InFlight int `json:"inFlight"`
	// Admitted counts ops accepted into the pool.
	Admitted int64 `json:"admitted"`
	// RejectedFull counts ops refused by admission control.
	RejectedFull int64 `json:"rejectedFull"`
	// DupPending counts adds that attached to an already-pending op.
	DupPending int64 `json:"dupPending"`
	// DupExecuted counts adds acked immediately because the ID executed
	// within the dedup TTL.
	DupExecuted int64 `json:"dupExecuted"`
	// Acked / Failed count resolved ops by outcome.
	Acked  int64 `json:"acked"`
	Failed int64 `json:"failed"`
}

// Pool is the pending pool. One Batcher drains it; any number of
// producers Add concurrently.
type Pool struct {
	mu       sync.Mutex
	cfg      Config
	lanes    [][]Op
	rr       int // round-robin drain cursor
	states   map[string]*opState
	queued   int
	inFlight int
	executed *TTLFilter
	notify   chan struct{}
	closed   bool
	stats    PoolStats
}

// NewPool builds a pool; zero or negative Config fields take
// conf.Defaults().
func NewPool(cfg Config) *Pool {
	cfg = FromConf(conf.Config{
		MempoolCap:    cfg.Cap,
		Lanes:         cfg.Lanes,
		BatchSize:     cfg.BatchSize,
		FlushInterval: cfg.FlushInterval,
		MaxInFlight:   cfg.MaxInFlight,
		DedupTTL:      cfg.DedupTTL,
	}.WithDefaults())
	return &Pool{
		cfg:      cfg,
		lanes:    make([][]Op, cfg.Lanes),
		states:   make(map[string]*opState),
		executed: NewTTLFilter(cfg.DedupTTL),
		notify:   make(chan struct{}, 1),
	}
}

// Config returns the configuration the pool is running with right now.
func (p *Pool) Config() Config {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg
}

// Retune installs c's Cap, BatchSize, FlushInterval and MaxInFlight on
// the running pool; the next admission, drain and dispatch use them.
// Lanes and DedupTTL are structural and ignored. c must already be
// clamped to usable values (conf.Config.Sanitize): a zero BatchSize or
// MaxInFlight would stall the batcher.
func (p *Pool) Retune(c Config) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cfg.Cap = c.Cap
	p.cfg.BatchSize = c.BatchSize
	p.cfg.FlushInterval = c.FlushInterval
	p.cfg.MaxInFlight = c.MaxInFlight
}

// Add admits op. done is invoked exactly once with the op's outcome (nil
// when the op's batch committed). Duplicate IDs attach to the pending op
// or — if the ID executed within the dedup TTL — are acked immediately;
// neither is proposed again. Returns ErrFull at the admission cap and
// ErrClosed after Close; done is not invoked on either error.
func (p *Pool) Add(op Op, done func(error)) error {
	if done == nil {
		done = func(error) {}
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	if st, ok := p.states[op.ID]; ok {
		st.acks = append(st.acks, done)
		p.stats.DupPending++
		p.mu.Unlock()
		return nil
	}
	if p.executed.Has(op.ID) {
		p.stats.DupExecuted++
		p.mu.Unlock()
		done(ErrDuplicate)
		return nil
	}
	if p.queued+p.inFlight >= p.cfg.Cap {
		p.stats.RejectedFull++
		p.mu.Unlock()
		return ErrFull
	}
	lane := LaneIndex(op.Lane, len(p.lanes))
	p.lanes[lane] = append(p.lanes[lane], op)
	p.states[op.ID] = &opState{acks: []func(error){done}, queued: true}
	p.queued++
	p.stats.Admitted++
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
	return nil
}

// drainLocked removes up to max ops, round-robin across lanes one op at a
// time from the drain cursor, so every lane keeps FIFO order and no lane
// starves. The drained ops move from queued to in-flight.
func (p *Pool) drainLocked(max int) []Op {
	if p.queued == 0 || max <= 0 {
		return nil
	}
	out := make([]Op, 0, min(max, p.queued))
	n := len(p.lanes)
	for len(out) < max && p.queued > 0 {
		for i := 0; i < n; i++ {
			lane := (p.rr + i) % n
			if len(p.lanes[lane]) == 0 {
				continue
			}
			op := p.lanes[lane][0]
			p.lanes[lane] = p.lanes[lane][1:]
			p.rr = (lane + 1) % n
			p.queued--
			p.inFlight++
			if st, ok := p.states[op.ID]; ok {
				st.queued = false
			}
			out = append(out, op)
			break
		}
		if len(out) == 0 {
			break // all lanes empty despite queued>0: unreachable guard
		}
		if p.queued == 0 || len(out) == max {
			break
		}
	}
	return out
}

// WaitBatch blocks until a batch is ready and drains it: immediately once
// BatchSize ops are queued, or after FlushInterval with whatever arrived.
// It returns nil when stop closes or the pool closes. Single consumer —
// the Batcher's dispatch loop.
func (p *Pool) WaitBatch(stop <-chan struct{}) []Op {
	var flush *time.Timer
	var flushC <-chan time.Time
	defer func() {
		if flush != nil {
			flush.Stop()
		}
	}()
	flushing := false
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil
		}
		// Read each pass, so a Retune applies to the next batch.
		cfg := p.cfg
		if p.queued >= cfg.BatchSize || (p.queued > 0 && (flushing || cfg.FlushInterval <= 0)) {
			ops := p.drainLocked(cfg.BatchSize)
			p.mu.Unlock()
			return ops
		}
		armed := p.queued > 0
		p.mu.Unlock()
		if armed && flushC == nil {
			flush = time.NewTimer(cfg.FlushInterval)
			flushC = flush.C
		}
		select {
		case <-stop:
			return nil
		case <-p.notify:
			// new op arrived; re-check fill level
		case <-flushC:
			flushing = true
			flushC = nil
		}
	}
}

// Resolve completes a drained batch: every op's acks fire with err, and
// on success the IDs enter the executed filter so late retries are
// suppressed. On failure the ops leave the pool entirely — a retry
// re-admits (and re-proposes) them.
func (p *Pool) Resolve(ops []Op, err error) {
	var acks []func(error)
	p.mu.Lock()
	for _, op := range ops {
		st, ok := p.states[op.ID]
		if !ok || st.queued {
			continue // not this batch's op (defensive)
		}
		delete(p.states, op.ID)
		p.inFlight--
		acks = append(acks, st.acks...)
		if err == nil {
			p.executed.Add(op.ID)
			p.stats.Acked++
		} else {
			p.stats.Failed++
		}
	}
	p.mu.Unlock()
	for _, ack := range acks {
		ack(err)
	}
}

// Close rejects future adds, wakes the batch waiter, and fails every
// queued (undrained) op with ErrClosed. In-flight batches resolve through
// Resolve as usual.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var acks []func(error)
	for lane, ops := range p.lanes {
		for _, op := range ops {
			if st, ok := p.states[op.ID]; ok && st.queued {
				delete(p.states, op.ID)
				p.queued--
				acks = append(acks, st.acks...)
				p.stats.Failed++
			}
		}
		p.lanes[lane] = nil
	}
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
	for _, ack := range acks {
		ack(ErrClosed)
	}
	return nil
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Depth = p.queued
	s.InFlight = p.inFlight
	return s
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
