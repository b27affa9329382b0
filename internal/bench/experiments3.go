package bench

import (
	"fmt"
	"os"
	"time"

	"prever/internal/chain"
	"prever/internal/conf"
	"prever/internal/netsim"
)

// E10Recovery measures crash recovery at the shard level: commit a
// workload into a durable shard, tear the process state down (only the
// WAL + snapshots survive, as after SIGKILL), and time how long
// reopening the data directory takes until every peer's chain is back.
// The snapshot cadence is the independent variable — snapshots bound the
// journal tail a restart must re-execute, so recovery time should track
// the tail length, not the total history (EXPERIMENTS.md E10).
func E10Recovery(scale Scale) (*Table, error) {
	// Cadences are in executed sequences, and batching folds ~64 puts
	// into one sequence — so they must sit well below ops/batchSize or
	// no snapshot ever fires and every cell degenerates to pure replay.
	ops := 512
	cadences := []uint64{2, 8, 1 << 30} // 1<<30 ⇒ never snapshots: pure replay
	if scale == Full {
		ops = 2048
		cadences = []uint64{2, 8, 32, 1 << 30}
	}
	t := &Table{
		ID:    "E10",
		Title: "Crash recovery: WAL replay vs snapshot cadence (1 shard, f=1)",
		Notes: fmt.Sprintf("%d committed puts; recover = reopen data dir until all peers serve their chain", ops),
		Header: []string{
			"snapshot-every", "committed", "height", "commit-time", "recover-time", "recovered-height",
		},
	}
	for _, every := range cadences {
		row, err := recoverOnce(ops, every)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}

// recoverOnce runs one E10 cell: populate a durable shard, close it,
// reopen from disk, and report both phases.
func recoverOnce(ops int, snapEvery uint64) ([]string, error) {
	dir, err := os.MkdirTemp("", "prever-e10-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := chain.ShardConfig{
		Name:    "e10",
		F:       1,
		Timeout: 20 * time.Second,
		DataDir: dir,
		Conf:    conf.Config{SnapshotEvery: snapEvery},
	}
	net := netsim.New(netsim.Config{})
	s, err := chain.NewShard(net, cfg)
	if err != nil {
		net.Close()
		return nil, err
	}
	commitStart := time.Now()
	txs := make([]chain.Tx, ops)
	for i := range txs {
		txs[i] = chain.Tx{Kind: chain.TxPut, Key: fmt.Sprintf("k%d", i%64), Value: []byte(fmt.Sprintf("v%d", i))}
	}
	committed := 0
	for _, res := range s.SubmitBatch(txs) {
		if res.Err == nil {
			committed++
		}
	}
	commitTime := time.Since(commitStart)
	height := s.Peers()[0].Height()
	if err := s.Close(); err != nil {
		net.Close()
		return nil, err
	}
	net.Close()
	if committed == 0 {
		return nil, fmt.Errorf("bench: E10 committed nothing at cadence %d", snapEvery)
	}

	// The crash-side state is now only what fsync left on disk. Reopen
	// and time until the shard serves its recovered chain.
	recoverStart := time.Now()
	net2 := netsim.New(netsim.Config{})
	defer net2.Close()
	s2, err := chain.NewShard(net2, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: E10 reopen at cadence %d: %w", snapEvery, err)
	}
	defer func() { _ = s2.Close() }()
	recovered := s2.Peers()[0].Height()
	recoverTime := time.Since(recoverStart)
	if recovered != height {
		return nil, fmt.Errorf("bench: E10 recovered height %d, committed height %d (cadence %d)",
			recovered, height, snapEvery)
	}

	cadence := fmt.Sprintf("%d", snapEvery)
	if snapEvery >= 1<<30 {
		cadence = "off"
	}
	return []string{
		cadence,
		fmt.Sprintf("%d", committed),
		fmt.Sprintf("%d", height),
		commitTime.Round(time.Millisecond).String(),
		recoverTime.Round(time.Millisecond).String(),
		fmt.Sprintf("%d", recovered),
	}, nil
}
