package chain

import (
	"fmt"
	"testing"
	"time"

	"prever/internal/conf"
	"prever/internal/netsim"
)

func durableShardCfg(dir string) ShardConfig {
	return ShardConfig{
		Name:        "s0",
		F:           1,
		Collections: map[string][]string{"collA": {"s0/peer0", "s0/peer1", "s0/peer2"}},
		Timeout:     5 * time.Second,
		DataDir:     dir,
		Conf:        conf.Config{SnapshotEvery: 8},
	}
}

// TestShardDurableRestart: a shard closed and rebuilt on a fresh network
// from the same data directory serves every committed key from disk
// alone — world state, chain integrity, and the private-data hash all
// survive (private VALUES live off-chain and are expected lost).
func TestShardDurableRestart(t *testing.T) {
	dir := t.TempDir()
	net1 := netsim.New(netsim.Config{})
	s, err := NewShard(net1, durableShardCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	chans := make([]<-chan Result, 0, n)
	for i := 0; i < n; i++ {
		chans = append(chans, s.SubmitAsync(Tx{
			Kind:  TxPut,
			Key:   fmt.Sprintf("k%02d", i),
			Value: []byte(fmt.Sprintf("v%02d", i)),
		}))
	}
	chans = append(chans, s.SubmitPrivate("collA", "pk", []byte("secret")))
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("tx %d: %v", i, res.Err)
		}
	}
	// Let every backup execute (the client acks after a quorum), then
	// shut storage down cleanly.
	waitHeights(t, s)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// "Process restart": fresh network, same directories.
	net2 := netsim.New(netsim.Config{})
	s2, err := NewShard(net2, durableShardCfg(dir))
	if err != nil {
		t.Fatalf("reopening shard from %s: %v", dir, err)
	}
	defer s2.Close()
	for _, p := range s2.Peers() {
		for i := 0; i < n; i++ {
			got, err := p.Get(fmt.Sprintf("k%02d", i))
			if err != nil || string(got) != fmt.Sprintf("v%02d", i) {
				t.Fatalf("%s: recovered Get(k%02d) = %q, %v", p.ID(), i, got, err)
			}
		}
		if bad, err := VerifyBlocks(p.Blocks()); err != nil {
			t.Fatalf("%s: recovered chain invalid at block %d: %v", p.ID(), bad, err)
		}
	}
	// The private value was off-chain: members keep its hash (the chain
	// verifies), but GetPrivate reports the value missing until the
	// writer redistributes it.
	if _, err := s2.Peers()[0].GetPrivate("collA", "pk"); err == nil {
		t.Fatal("private VALUE should not survive a disk-only recovery")
	}

	// The recovered shard accepts fresh transactions (no dedup collision
	// with the previous incarnation's tx IDs or client sequence).
	res := <-s2.SubmitAsync(Tx{Kind: TxPut, Key: "post", Value: []byte("restart")})
	if res.Err != nil {
		t.Fatalf("post-restart submit: %v", res.Err)
	}
	if got, err := s2.Peers()[0].Get("post"); err != nil || string(got) != "restart" {
		t.Fatalf("post-restart Get = %q, %v", got, err)
	}
}

// waitHeights waits until every peer in the shard is at the same height.
func waitHeights(t *testing.T, s *Shard) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		h := s.Peers()[0].Height()
		same := true
		for _, p := range s.Peers() {
			if p.Height() != h {
				same = false
			}
		}
		if same {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("peers did not converge on one height")
}
