// Package conf defines the runtime-tunable consensus/batching knobs as a
// plain value. It holds no state: each server owns its own Config
// (chain.Sharded keeps the live one and retunes its shards' pools when it
// changes), so two servers in one process never share a knob.
//
// A Config is resolved in one of two ways. WithDefaults reads a field a
// builder left zero as unset and takes the default; Sanitize clamps
// values a user set, so there a zero FlushInterval proposes immediately.
package conf

import "time"

// Config is one value of every runtime knob.
type Config struct {
	// BatchSize is the maximum number of operations the mempool batcher
	// drains into one consensus instance.
	BatchSize int
	// FlushInterval is how long the batcher waits for a partial batch to
	// fill before proposing it anyway. Zero proposes immediately (but
	// WithDefaults reads a zero as unset).
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
}

// Defaults is the configuration a server boots with.
func Defaults() Config {
	return Config{
		BatchSize:     64,
		FlushInterval: 500 * time.Microsecond,
		MaxInFlight:   4,
		MempoolCap:    4096,
		Lanes:         8,
		DedupTTL:      time.Minute,
		MaxTxBytes:    1 << 20,
		SnapshotEvery: 256,
	}
}

// WithDefaults returns c with every zero or negative field taken from
// Defaults(). Builders (chain.NewShard, mempool.NewPool) resolve a
// partly filled Config with it.
func (c Config) WithDefaults() Config {
	d := Defaults()
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = d.FlushInterval
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = d.MaxInFlight
	}
	if c.MempoolCap <= 0 {
		c.MempoolCap = d.MempoolCap
	}
	if c.Lanes <= 0 {
		c.Lanes = d.Lanes
	}
	if c.DedupTTL <= 0 {
		c.DedupTTL = d.DedupTTL
	}
	if c.MaxTxBytes <= 0 {
		c.MaxTxBytes = d.MaxTxBytes
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = d.SnapshotEvery
	}
	return c
}

// Sanitize clamps a config to usable values so a zeroed or negative knob
// can never wedge the batcher.
func (c *Config) Sanitize() {
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
}
