package main

import (
	"testing"
	"time"

	"prever/internal/chain"
	"prever/internal/conf"
	"prever/internal/netsim"
)

// TestFlushZeroProposesImmediately: -flush 0 reaches the running chain
// as a zero interval (propose immediately) instead of reading as unset,
// and the other flags arrive as given.
func TestFlushZeroProposesImmediately(t *testing.T) {
	simnet := netsim.New(netsim.Config{})
	t.Cleanup(simnet.Close)
	cfg := conf.Defaults()
	cfg.FlushInterval = 0
	cfg.BatchSize = 7
	cfg.Lanes = 3
	sharded, err := newChain(simnet, 2, chain.ShardConfig{F: 1, Timeout: 5 * time.Second, Conf: cfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sharded.Close() })
	if got := sharded.Conf(); got != cfg {
		t.Fatalf("chain runs %+v, want the flags' %+v", got, cfg)
	}
	if n := len(sharded.Shards()); n != 2 {
		t.Fatalf("built %d shards, want 2", n)
	}
}
