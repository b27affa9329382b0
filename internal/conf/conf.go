// Package conf centralizes the runtime-tunable consensus/batching knobs
// (wavelet's conf/conf.go pattern): one immutable snapshot struct behind
// an atomic pointer. Getters read the current snapshot — every field a
// caller reads through one Snapshot() call is from the same generation —
// and setters install a fresh copy (copy-on-write), so a bench sweep or a
// live server can retune batch sizes, flush intervals and queue caps
// without rebuilds and without readers ever seeing a half-updated config.
//
// Consumers: internal/mempool (batch size, flush interval, in-flight cap,
// pool cap, lane count), chain.Shard (its mempool defaults), and
// cmd/prever-bench (flags map straight onto Set*).
package conf

import (
	"sync"
	"sync/atomic"
	"time"
)

// Config is one snapshot of every runtime knob.
type Config struct {
	// BatchSize is the maximum number of operations the mempool batcher
	// drains into one consensus instance.
	BatchSize int
	// FlushInterval is how long the batcher waits for a partial batch to
	// fill before proposing it anyway. Zero proposes immediately.
	FlushInterval time.Duration
	// MaxInFlight is how many batched consensus instances may be
	// pipelined concurrently (slots/sequence numbers assigned eagerly,
	// applied in order).
	MaxInFlight int
	// MempoolCap is the admission-control bound on unresolved mempool
	// operations (queued + in flight); additions beyond it are rejected.
	MempoolCap int
	// Lanes is the number of key-hashed mempool lanes; operations with
	// the same lane key keep their submission order through batching.
	Lanes int
	// DedupTTL is how long the mempool remembers executed operation IDs
	// for duplicate suppression (retried ops inside the window are acked,
	// not re-proposed). Entries survive between TTL and 2×TTL.
	DedupTTL time.Duration
	// MaxTxBytes bounds one transaction's canonical binary encoding
	// (the bytes consensus carries: the value plus a few dozen bytes of
	// framing, with no base64 or JSON inflation) on the submit path;
	// larger submissions fail with chain.ErrTxTooLarge (HTTP 413 on the
	// wire) instead of bloating consensus batches.
	MaxTxBytes int
	// SnapshotEvery is the executed-sequence cadence between durable
	// consensus snapshots (WAL compaction points) when a shard runs with
	// a data directory.
	SnapshotEvery uint64
	// WALSegmentBytes is the WAL segment rotation threshold for durable
	// replicas.
	WALSegmentBytes int64
}

// Defaults is the configuration the system boots with.
func Defaults() Config {
	return Config{
		BatchSize:       64,
		FlushInterval:   500 * time.Microsecond,
		MaxInFlight:     4,
		MempoolCap:      4096,
		Lanes:           8,
		DedupTTL:        time.Minute,
		MaxTxBytes:      1 << 20,
		SnapshotEvery:   256,
		WALSegmentBytes: 4 << 20,
	}
}

// sanitize clamps a config to usable values so a zeroed or negative knob
// can never wedge the batcher.
func (c *Config) sanitize() {
	if c.BatchSize < 1 {
		c.BatchSize = 1
	}
	if c.FlushInterval < 0 {
		c.FlushInterval = 0
	}
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 1
	}
	if c.MempoolCap < 1 {
		c.MempoolCap = 1
	}
	if c.Lanes < 1 {
		c.Lanes = 1
	}
	if c.DedupTTL <= 0 {
		c.DedupTTL = time.Minute
	}
	if c.MaxTxBytes < 1 {
		c.MaxTxBytes = 1 << 20
	}
	if c.SnapshotEvery < 1 {
		c.SnapshotEvery = 256
	}
	if c.WALSegmentBytes < 1 {
		c.WALSegmentBytes = 4 << 20
	}
}

var (
	cur atomic.Pointer[Config]
	// setMu serializes writers so two concurrent Update calls cannot lose
	// each other's fields; readers never take it.
	setMu sync.Mutex
)

func init() {
	d := Defaults()
	cur.Store(&d)
}

// Snapshot returns the current configuration. All fields are from the
// same generation.
func Snapshot() Config { return *cur.Load() }

// Set installs c (sanitized) as the current configuration.
func Set(c Config) {
	setMu.Lock()
	defer setMu.Unlock()
	c.sanitize()
	cur.Store(&c)
}

// Update applies f to a copy of the current configuration and installs
// the result; concurrent Update calls are serialized, so no field write
// is lost.
func Update(f func(*Config)) {
	setMu.Lock()
	defer setMu.Unlock()
	c := *cur.Load()
	f(&c)
	c.sanitize()
	cur.Store(&c)
}

// Reset restores Defaults (test hygiene).
func Reset() { Set(Defaults()) }

// Individual getters and setters, for call sites that touch one knob.

// BatchSize returns the current batch size.
func BatchSize() int { return Snapshot().BatchSize }

// SetBatchSize updates the batch size.
func SetBatchSize(n int) { Update(func(c *Config) { c.BatchSize = n }) }

// FlushInterval returns the current partial-batch flush interval.
func FlushInterval() time.Duration { return Snapshot().FlushInterval }

// SetFlushInterval updates the partial-batch flush interval.
func SetFlushInterval(d time.Duration) { Update(func(c *Config) { c.FlushInterval = d }) }

// MaxInFlight returns the pipelining bound.
func MaxInFlight() int { return Snapshot().MaxInFlight }

// SetMaxInFlight updates the pipelining bound.
func SetMaxInFlight(n int) { Update(func(c *Config) { c.MaxInFlight = n }) }

// MempoolCap returns the mempool admission bound.
func MempoolCap() int { return Snapshot().MempoolCap }

// SetMempoolCap updates the mempool admission bound.
func SetMempoolCap(n int) { Update(func(c *Config) { c.MempoolCap = n }) }

// Lanes returns the mempool lane count.
func Lanes() int { return Snapshot().Lanes }

// SetLanes updates the mempool lane count.
func SetLanes(n int) { Update(func(c *Config) { c.Lanes = n }) }

// DedupTTL returns the executed-op dedup window.
func DedupTTL() time.Duration { return Snapshot().DedupTTL }

// SetDedupTTL updates the executed-op dedup window.
func SetDedupTTL(d time.Duration) { Update(func(c *Config) { c.DedupTTL = d }) }

// MaxTxBytes returns the encoded-transaction size bound.
func MaxTxBytes() int { return Snapshot().MaxTxBytes }

// SetMaxTxBytes updates the encoded-transaction size bound.
func SetMaxTxBytes(n int) { Update(func(c *Config) { c.MaxTxBytes = n }) }

// SnapshotEvery returns the durable-snapshot cadence.
func SnapshotEvery() uint64 { return Snapshot().SnapshotEvery }

// SetSnapshotEvery updates the durable-snapshot cadence.
func SetSnapshotEvery(n uint64) { Update(func(c *Config) { c.SnapshotEvery = n }) }

// WALSegmentBytes returns the WAL segment rotation threshold.
func WALSegmentBytes() int64 { return Snapshot().WALSegmentBytes }

// SetWALSegmentBytes updates the WAL segment rotation threshold.
func SetWALSegmentBytes(n int64) { Update(func(c *Config) { c.WALSegmentBytes = n }) }
