package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"prever/internal/api"
	"prever/internal/chain"
	"prever/internal/commit"
	"prever/internal/conf"
	"prever/internal/he"
	"prever/internal/ledger"
	"prever/internal/mempool"
	"prever/internal/merkle"
	"prever/internal/netsim"
	"prever/internal/pbft"
	"prever/internal/store"
	"prever/internal/wal"
	"prever/internal/zk"
)

// The layer probes time the benchmark's own calls into each layer's
// public functions, with the workload's shapes of keys, values and
// batches. Calls of a few hundred nanoseconds are timed as a loop under
// one span; slower calls get a span each.

// metrics is a set of named values with units.
type metrics map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// allocs counts heap allocations and bytes across f. The probes run
// while nothing else in the process works, so the delta is f's.
func allocs(f func()) (n, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// keyNames builds the workload's key strings outside any timed loop.
func keyNames(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = keyName(i)
	}
	return keys
}

func txEncoding(k int, ver int64, size int) []byte {
	b, err := json.Marshal(chain.Tx{ID: fmt.Sprintf("shard0-bench-tx-%d", ver), Kind: chain.TxPut, Key: keyName(k), Value: value(k, ver, size)})
	if err != nil {
		panic(err) // chain.Tx always marshals
	}
	return b
}

// probeAPI times the HTTP edge's codec on the workload's requests: the
// server's decode (json into the wire struct, Validate, ToChain) and its
// response encoding, plus the /health round trip on one connection.
func probeAPI(m metrics, spec servingSpec, seed int64, addr string, tr *Tracer) error {
	const n = 400
	ops := makeOps(spec, seed+1, n)
	bodies := make([][]byte, n)
	for i, op := range ops {
		if op.read {
			continue
		}
		if spec.TxPerReq == 1 {
			k := op.keys[0]
			bodies[i] = encodeJSON(api.SubmitRequest{Tx: api.Tx{Kind: api.KindPut, Key: keyName(k), Value: value(k, int64(i), spec.ValueBytes)}})
			continue
		}
		txs := make([]api.Tx, len(op.keys))
		for j, k := range op.keys {
			txs[j] = api.Tx{Kind: api.KindPut, Key: keyName(k), Value: value(k, int64(i), spec.ValueBytes)}
		}
		bodies[i] = encodeJSON(api.BatchRequest{Txs: txs})
	}
	decode := func(body []byte) error {
		if spec.TxPerReq == 1 {
			var req api.SubmitRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			_, err := req.Tx.ToChain()
			return err
		}
		var req api.BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		if err := req.Validate(); err != nil {
			return err
		}
		for _, tx := range req.Txs {
			if _, err := tx.ToChain(); err != nil {
				return err
			}
		}
		return nil
	}
	resps := make([]any, n)
	for i, op := range ops {
		switch {
		case op.read:
			k := op.keys[0]
			resps[i] = api.GetResponse{Key: keyName(k), Value: value(k, int64(i), spec.ValueBytes), Found: true}
		case spec.TxPerReq == 1:
			resps[i] = api.SubmitResponse{TxID: fmt.Sprintf("shard0-0123456789ab-tx-%d", i)}
		default:
			rs := make([]api.BatchResult, len(op.keys))
			for j := range rs {
				rs[j].TxID = fmt.Sprintf("shard0-0123456789ab-tx-%d", i*len(rs)+j)
			}
			resps[i] = api.BatchResponse{Results: rs}
		}
	}
	var decodeT, encodeT time.Duration
	writes := 0
	var firstErr error
	run := func(traced bool) {
		for i := range ops {
			if bodies[i] != nil {
				var sp activeSpan
				if traced {
					sp = tr.Begin("api.decode", 0, int64(i))
				}
				t0 := time.Now()
				if err := decode(bodies[i]); err != nil && firstErr == nil {
					firstErr = err
				}
				if traced {
					decodeT += time.Since(t0)
					writes++
					sp.End()
				}
			}
			var sp activeSpan
			if traced {
				sp = tr.Begin("api.encode", 0, int64(i))
			}
			t0 := time.Now()
			if _, err := json.Marshal(resps[i]); err != nil && firstErr == nil {
				firstErr = err
			}
			if traced {
				encodeT += time.Since(t0)
				sp.End()
			}
		}
	}
	run(true)
	na, _ := allocs(func() { run(false) })
	if firstErr != nil {
		return fmt.Errorf("api probe: %w", firstErr)
	}
	m.set("api.decode_us_per_req", float64(decodeT)/1e3/float64(max(writes, 1)), "us")
	m.set("api.encode_us_per_req", float64(encodeT)/1e3/n, "us")
	m.set("api.allocs_per_req", float64(na)/n, "count")

	c := newConn(addr)
	defer c.close()
	var rtts []time.Duration
	for i := 0; i < 300; i++ {
		sp := tr.Begin("api.health", 0, int64(i))
		t0 := time.Now()
		var h api.HealthResponse
		if err := c.do(http.MethodGet, "/health", nil, &h); err != nil {
			return fmt.Errorf("api probe: %w", err)
		}
		rtts = append(rtts, time.Since(t0))
		sp.End()
	}
	m.set("api.rtt_us", median(durValues(rtts, time.Microsecond)), "us")
	return nil
}

// probeMempool times Pool.Add and the batcher's drain (WaitBatch +
// Resolve) on a private pool, with the workload's transaction encodings.
func probeMempool(m metrics, spec servingSpec, tr *Tracer) error {
	const n = 20000
	ops := make([]mempool.Op, n)
	for i := range ops {
		ops[i] = mempool.Op{ID: fmt.Sprintf("op-%d", i), Lane: keyName(i % spec.Keys), Data: txEncoding(i%spec.Keys, int64(i), spec.ValueBytes)}
	}
	d := conf.Defaults()
	pool := mempool.NewPool(mempool.Config{Cap: n + 1, Lanes: d.Lanes, BatchSize: d.BatchSize, FlushInterval: d.FlushInterval, MaxInFlight: d.MaxInFlight, DedupTTL: d.DedupTTL})
	done := func(error) {}
	sp := tr.Begin("mempool.add", 0, 0)
	t0 := time.Now()
	for _, op := range ops {
		if err := pool.Add(op, done); err != nil {
			sp.End()
			return fmt.Errorf("mempool probe: add: %w", err)
		}
	}
	add := time.Since(t0)
	sp.End()
	stop := make(chan struct{})
	sp = tr.Begin("mempool.drain", 0, 0)
	t0 = time.Now()
	for drained := 0; drained < n; {
		ops := pool.WaitBatch(stop)
		pool.Resolve(ops, nil)
		drained += len(ops)
	}
	drain := time.Since(t0)
	sp.End()
	close(stop)
	_ = pool.Close()
	m.set("mempool.add_ns_per_op", float64(add.Nanoseconds())/n, "ns")
	m.set("mempool.drain_ns_per_op", float64(drain.Nanoseconds())/n, "ns")
	return nil
}

// probePBFT drives a bare 4-replica cluster (no-op applier) with the
// workload's batches, pipelined to the default in-flight depth.
func probePBFT(m metrics, spec servingSpec, tr *Tracer) error {
	perBatch := spec.TxPerReq
	batches := 150
	if perBatch == 1 {
		batches = 1500
	}
	net := netsim.New(netsim.Config{})
	defer net.Close()
	ids := []string{"r0", "r1", "r2", "r3"}
	var reps []*pbft.Replica
	for _, id := range ids {
		r, err := pbft.NewReplica(net, id, ids, 1, func(uint64, []pbft.Request) {}, pbft.Options{})
		if err != nil {
			return err
		}
		reps = append(reps, r)
	}
	client, err := pbft.NewClient(net, reps, "bench/pbft", pbft.ClientOptions{})
	if err != nil {
		return err
	}
	batchOps := make([][][]byte, batches)
	for b := range batchOps {
		batchOps[b] = make([][]byte, perBatch)
		for j := range batchOps[b] {
			batchOps[b][j] = txEncoding((b*perBatch+j)%spec.Keys, int64(b*perBatch+j), spec.ValueBytes)
		}
	}
	depth := conf.Defaults().MaxInFlight
	type inflight struct {
		p     *pbft.Pending
		start time.Time
		sp    activeSpan
	}
	var lat []time.Duration
	var waitErr error
	sent0, _, _ := net.Stats()
	cpu0 := selfCPU()
	na, nb := allocs(func() {
		var q []inflight
		wait := func() {
			f := q[0]
			q = q[1:]
			if err := f.p.Wait(10 * time.Second); err != nil && waitErr == nil {
				waitErr = err
			}
			lat = append(lat, time.Since(f.start))
			f.sp.End()
		}
		for b := 0; b < batches; b++ {
			if len(q) == depth {
				wait()
			}
			sp := tr.Begin("pbft.commit_batch", 0, int64(b))
			q = append(q, inflight{p: client.StartBatch(batchOps[b]), start: time.Now(), sp: sp})
		}
		for len(q) > 0 {
			wait()
		}
	})
	cpu := selfCPU() - cpu0
	sent1, _, _ := net.Stats()
	if waitErr != nil {
		return fmt.Errorf("pbft probe: %w", waitErr)
	}
	txs := float64(batches * perBatch)
	var views uint64
	for _, r := range reps {
		if v := r.View(); v > views {
			views = v
		}
	}
	m.set("pbft.commit_us_per_batch", median(durValues(lat, time.Microsecond)), "us")
	m.set("pbft.cpu_us_per_tx", float64(cpu.Microseconds())/txs, "us")
	m.set("pbft.allocs_per_tx", float64(na)/txs, "count")
	m.set("pbft.alloc_bytes_per_tx", float64(nb)/txs, "B")
	m.set("pbft.msgs_per_tx", float64(sent1-sent0)/txs, "count")
	m.set("pbft.view_changes", float64(views), "count")
	return nil
}

// chainProbe is an in-memory shard driven without HTTP.
type chainProbe struct {
	net     *netsim.Network
	sharded *chain.Sharded
}

func newChainProbe() (*chainProbe, error) {
	net := netsim.New(netsim.Config{})
	shard, err := chain.NewShard(net, chain.ShardConfig{Name: "shard0", F: 1, Timeout: 10 * time.Second})
	if err != nil {
		net.Close()
		return nil, err
	}
	sharded, err := chain.NewSharded(shard)
	if err != nil {
		_ = shard.Close()
		net.Close()
		return nil, err
	}
	return &chainProbe{net: net, sharded: sharded}, nil
}

func (c *chainProbe) close() {
	_ = c.sharded.Close()
	c.net.Close()
}

func (c *chainProbe) peer() *chain.Peer { return c.sharded.Shards()[0].Peers()[0] }

// submit commits txs in one call (SubmitBatch, or SubmitAsync for one).
func (c *chainProbe) submit(txs []chain.Tx) error {
	if len(txs) == 1 {
		return (<-c.sharded.SubmitAsync(txs[0])).Err
	}
	for _, r := range c.sharded.SubmitBatch(txs) {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// probeChain measures the chain submission path in process: two closed
// loop submitters (the workload's connection count) against a warm key
// set, then reads, block verification and heap growth per transaction.
func probeChain(m metrics, spec servingSpec, tr *Tracer) (*chainProbe, error) {
	cp, err := newChainProbe()
	if err != nil {
		return nil, err
	}
	perCall := spec.TxPerReq
	warmKeys := spec.Keys
	for lo := 0; lo < warmKeys; lo += 64 {
		var txs []chain.Tx
		for k := lo; k < lo+64 && k < warmKeys; k++ {
			txs = append(txs, chain.Tx{Kind: chain.TxPut, Key: keyName(k), Value: value(k, 0, spec.ValueBytes)})
		}
		if err := cp.submit(txs); err != nil {
			cp.close()
			return nil, fmt.Errorf("chain probe warm-up: %w", err)
		}
	}
	calls := 100
	if perCall == 1 {
		calls = 2000
	}
	rng := rand.New(rand.NewSource(7))
	work := make([][]chain.Tx, calls)
	for i := range work {
		work[i] = make([]chain.Tx, perCall)
		for j := range work[i] {
			k := rng.Intn(spec.Keys)
			work[i][j] = chain.Tx{Kind: chain.TxPut, Key: keyName(k), Value: value(k, int64(1+i*perCall+j), spec.ValueBytes)}
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc
	var mu sync.Mutex
	var lat []time.Duration
	var firstErr error
	cpu0 := selfCPU()
	na, _ := allocs(func() {
		var wg sync.WaitGroup
		next := make(chan int, calls) // sized to the number of sends
		for i := 0; i < calls; i++ {
			next <- i
		}
		close(next)
		for w := 0; w < spec.Conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					sp := tr.Begin("chain.submit", 0, int64(i))
					t0 := time.Now()
					err := cp.submit(work[i])
					d := time.Since(t0)
					sp.End()
					mu.Lock()
					lat = append(lat, d)
					if err != nil && firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	cpu := selfCPU() - cpu0
	if firstErr != nil {
		cp.close()
		return nil, fmt.Errorf("chain probe: %w", firstErr)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	txs := float64(calls * perCall)
	m.set("chain.submit_us_per_tx", median(durValues(lat, time.Microsecond))/float64(perCall), "us")
	m.set("chain.cpu_us_per_tx", float64(cpu.Microseconds())/txs, "us")
	m.set("chain.allocs_per_tx", float64(na)/txs, "count")
	m.set("chain.heap_growth_kib_per_tx", (float64(ms.HeapAlloc)-float64(heap0))/1024/txs, "KiB")

	peer := cp.peer()
	keys := keyNames(spec.Keys)
	const gets = 20000
	sp := tr.Begin("chain.get", 0, 0)
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		if _, err := peer.Get(keys[i%len(keys)]); err != nil {
			sp.End()
			cp.close()
			return nil, fmt.Errorf("chain probe get: %w", err)
		}
	}
	m.set("chain.get_ns", float64(time.Since(t0).Nanoseconds())/gets, "ns")
	sp.End()

	blocks := peer.Blocks()
	sp = tr.Begin("chain.verify_blocks", 0, 0)
	t0 = time.Now()
	if bad, err := chain.VerifyBlocks(blocks); err != nil {
		sp.End()
		cp.close()
		return nil, fmt.Errorf("chain probe: block %d: %w", bad, err)
	}
	m.set("chain.verify_blocks_us_per_block", float64(time.Since(t0).Microseconds())/float64(max(len(blocks), 1)), "us")
	sp.End()
	return cp, nil
}

// probeSnapshot snapshots peer (the traced run's stack) and restores the
// image into a fresh peer.
func probeSnapshot(m metrics, peer *chain.Peer, tr *Tracer) ([]byte, error) {
	sp := tr.Begin("chain.snapshot", 0, 0)
	t0 := time.Now()
	snap, err := peer.Snapshot()
	m.set("chain.snapshot_ms", float64(time.Since(t0).Microseconds())/1e3, "ms")
	sp.End()
	if err != nil {
		return nil, err
	}
	m.set("chain.snapshot_mib", float64(len(snap))/(1<<20), "MiB")
	fresh, err := newChainProbe()
	if err != nil {
		return nil, err
	}
	defer fresh.close()
	sp = tr.Begin("chain.restore", 0, 0)
	t0 = time.Now()
	err = fresh.peer().Restore(snap)
	m.set("chain.restore_ms", float64(time.Since(t0).Microseconds())/1e3, "ms")
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("chain restore: %w", err)
	}
	if fresh.peer().Height() != peer.Height() {
		return nil, fmt.Errorf("chain restore: height %d, want %d", fresh.peer().Height(), peer.Height())
	}
	return snap, nil
}

// probeMerkleStore times Merkle appends and per-block roots over the
// workload's transaction encodings, and the world-state KV.
func probeMerkleStore(m metrics, spec servingSpec, tr *Tracer) {
	const n = 8192
	enc := make([][]byte, n)
	for i := range enc {
		enc[i] = txEncoding(i%spec.Keys, int64(i), spec.ValueBytes)
	}
	t := merkle.New()
	sp := tr.Begin("merkle.append", 0, 0)
	t0 := time.Now()
	for _, e := range enc {
		t.Append(e)
	}
	m.set("merkle.append_ns_per_leaf", float64(time.Since(t0).Nanoseconds())/n, "ns")
	sp.End()
	// A block's transaction root is a fresh 64-leaf tree (chain.txRoot):
	// build and fold it per block.
	const blocks = n / 64
	var roots []time.Duration
	for b := 0; b < blocks; b++ {
		sp := tr.Begin("merkle.block_root", 0, int64(b))
		t0 := time.Now()
		bt := merkle.New()
		for _, e := range enc[b*64 : (b+1)*64] {
			bt.Append(e)
		}
		_ = bt.Root()
		roots = append(roots, time.Since(t0))
		sp.End()
	}
	m.set("merkle.root_us_per_block", median(durValues(roots, time.Microsecond)), "us")

	kv := store.NewKV()
	keys := keyNames(spec.Keys)
	vals := make([][]byte, 256)
	for i := range vals {
		vals[i] = value(i, int64(i), spec.ValueBytes)
	}
	const puts = 50000
	sp = tr.Begin("store.put", 0, 0)
	t0 = time.Now()
	for i := 0; i < puts; i++ {
		kv.Put(keys[i%len(keys)], vals[i%len(vals)])
	}
	m.set("store.put_ns", float64(time.Since(t0).Nanoseconds())/puts, "ns")
	sp.End()
	sp = tr.Begin("store.get", 0, 0)
	t0 = time.Now()
	for i := 0; i < puts; i++ {
		_, _ = kv.Get(keys[i%len(keys)])
	}
	m.set("store.get_ns", float64(time.Since(t0).Nanoseconds())/puts, "ns")
	sp.End()
}

// probeWAL times fsynced appends of one 64-transaction batch record, a
// snapshot of the given size, and recovery of replayDir (a peer's
// directory after the run, or the probe's own log).
func probeWAL(m metrics, spec servingSpec, dir string, snap []byte, replayDir string, tr *Tracer) (cpuPerAppend time.Duration, err error) {
	ops := make([][]byte, 64)
	for j := range ops {
		ops[j] = txEncoding(j%spec.Keys, int64(j), spec.ValueBytes)
	}
	rec := pbft.EncodeBatch(ops)
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, err
	}
	const appends = 200
	var lat []time.Duration
	cpu0 := selfCPU()
	for i := 0; i < appends; i++ {
		sp := tr.Begin("wal.append_sync", 0, int64(i))
		t0 := time.Now()
		if err := log.AppendSync(rec); err != nil {
			_ = log.Close()
			return 0, err
		}
		lat = append(lat, time.Since(t0))
		sp.End()
	}
	cpuPerAppend = (selfCPU() - cpu0) / appends
	m.set("wal.append_sync_us", median(durValues(lat, time.Microsecond)), "us")
	sp := tr.Begin("wal.snapshot", 0, 0)
	t0 := time.Now()
	err = log.Snapshot(snap)
	m.set("wal.snapshot_ms", float64(time.Since(t0).Microseconds())/1e3, "ms")
	sp.End()
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if replayDir == "" {
		replayDir = dir
	}
	sp = tr.Begin("wal.replay", 0, 0)
	t0 = time.Now()
	rlog, _, err := wal.Open(replayDir, wal.Options{})
	m.set("wal.replay_ms", float64(time.Since(t0).Microseconds())/1e3, "ms")
	sp.End()
	if err != nil {
		return 0, fmt.Errorf("wal replay %s: %w", replayDir, err)
	}
	_ = rlog.Close()
	m.set("wal.disk_mib", dirMiB(filepath.Dir(replayDir)), "MiB")
	return cpuPerAppend, nil
}

// probeZK times the bound proof and its verifiers, the multi-exponent
// fold, commitment addition and ledger appends over MODP2048.
func probeZK(m metrics, sys *rc1System, zkStats batchRatio, seed int64, tr *Tracer) error {
	params := sys.params
	bound := big.NewInt(sys.bound)
	const proofs = 4
	rng := rand.New(rand.NewSource(seed))
	cs := make([]commit.Commitment, proofs)
	prs := make([]zk.BoundProof, proofs)
	ctxs := make([]string, proofs)
	var prove, verify []time.Duration
	for i := range cs {
		c, o, err := params.Commit(big.NewInt(1+rng.Int63n(sys.bound)), nil)
		if err != nil {
			return err
		}
		cs[i], ctxs[i] = c, fmt.Sprintf("bench/zk/%d", i)
		sp := tr.Begin("zk.prove_bound", 0, int64(i))
		t0 := time.Now()
		prs[i], err = zk.ProveBound(params, c, o, bound, ctxs[i], nil)
		prove = append(prove, time.Since(t0))
		sp.End()
		if err != nil {
			return err
		}
	}
	for i := range cs {
		sp := tr.Begin("zk.verify_bound", 0, int64(i))
		t0 := time.Now()
		err := zk.VerifyBound(params, cs[i], bound, prs[i], ctxs[i])
		verify = append(verify, time.Since(t0))
		sp.End()
		if err != nil {
			return fmt.Errorf("zk probe: valid proof rejected: %w", err)
		}
	}
	var batch []time.Duration
	for r := 0; r < 3; r++ {
		sp := tr.Begin("zk.verify_bound_batch", 0, int64(r))
		t0 := time.Now()
		errs, err := zk.VerifyBoundBatch(params, cs, bound, prs, ctxs, nil)
		batch = append(batch, time.Since(t0))
		sp.End()
		if err != nil {
			return err
		}
		for _, e := range errs {
			if e != nil {
				return fmt.Errorf("zk probe: batch rejected a valid proof: %w", e)
			}
		}
	}
	m.set("zk.prove_bound_ms", median(durValues(prove, time.Millisecond)), "ms")
	m.set("zk.verify_bound_ms", median(durValues(verify, time.Millisecond)), "ms")
	m.set("zk.verify_bound_batch_ms_per_proof", median(durValues(batch, time.Millisecond))/proofs, "ms")

	g := params.Group
	const terms = 64
	bases := make([]*big.Int, terms)
	exps := make([]*big.Int, terms)
	for i := range bases {
		bases[i] = g.ExpG(new(big.Int).Rand(rng, g.Q))
		exps[i] = new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 128))
	}
	var me []time.Duration
	for r := 0; r < 5; r++ {
		sp := tr.Begin("group.multiexp", 0, int64(r))
		t0 := time.Now()
		if _, err := g.MultiExp(bases, exps); err != nil {
			return err
		}
		me = append(me, time.Since(t0))
		sp.End()
	}
	m.set("group.multiexp_us_per_term", median(durValues(me, time.Microsecond))/terms, "us")

	const adds = 2000
	acc := cs[0]
	sp := tr.Begin("commit.add", 0, 0)
	t0 := time.Now()
	for i := 0; i < adds; i++ {
		acc = params.Add(acc, cs[i%proofs])
	}
	m.set("commit.add_us", float64(time.Since(t0).Nanoseconds())/1e3/adds, "us")
	sp.End()
	m.set("core.zk_batch_ratio", zkStats.ratio(), "ratio")

	l := ledger.New()
	payload := append(cs[0].Bytes(), acc.Bytes()...)
	const puts = 2000
	sp = tr.Begin("ledger.put", 0, 0)
	t0 = time.Now()
	for i := 0; i < puts; i++ {
		if _, err := l.Put(fmt.Sprintf("zk/g/u%d", i), payload, "bench", fmt.Sprintf("u%d", i)); err != nil {
			sp.End()
			return err
		}
	}
	m.set("ledger.put_us", float64(time.Since(t0).Nanoseconds())/1e3/puts, "us")
	sp.End()
	return nil
}

// batchRatio is the share of ZK submissions verified on the amortized path.
type batchRatio struct{ batched, submitted int64 }

func (b batchRatio) ratio() float64 { return ratio(float64(b.batched), float64(b.submitted)) }

// probeHE times Paillier encryption, addition and CRT decryption under a
// key of the workload's size, and the helper's masked sign decision.
func probeHE(m metrics, sys *rc1System, tr *Tracer) error {
	sk, err := he.GenerateKey(sys.heBits, nil)
	if err != nil {
		return err
	}
	pk := &sk.PublicKey
	hpk := sys.helper.PublicKey()
	const n, adds = 40, 50
	var enc, add, dec, sign []time.Duration
	for i := 0; i < n; i++ {
		sp := tr.Begin("he.encrypt", 0, int64(i))
		t0 := time.Now()
		ct, err := pk.Encrypt(big.NewInt(int64(i+1)), nil)
		enc = append(enc, time.Since(t0))
		sp.End()
		if err != nil {
			return err
		}
		sum := ct
		sp = tr.Begin("he.add", 0, int64(i))
		t0 = time.Now()
		for j := 0; j < adds; j++ {
			sum = pk.Add(sum, ct)
		}
		add = append(add, time.Since(t0)/adds)
		sp.End()
		sp = tr.Begin("he.decrypt", 0, int64(i))
		t0 = time.Now()
		v, err := sk.Decrypt(sum)
		dec = append(dec, time.Since(t0))
		sp.End()
		if err != nil || v.Int64() != int64((i+1)*(adds+1)) {
			return fmt.Errorf("he probe: decrypt gave %v (%v)", v, err)
		}
		hct, err := hpk.Encrypt(big.NewInt(int64(i+1)), nil)
		if err != nil {
			return err
		}
		sp = tr.Begin("mpc.sign_of_masked", 0, int64(i))
		t0 = time.Now()
		s, err := sys.helper.SignOfMasked(hct)
		sign = append(sign, time.Since(t0))
		sp.End()
		if err != nil || s != 1 {
			return fmt.Errorf("he probe: sign of %d = %d (%v)", i+1, s, err)
		}
	}
	m.set("he.encrypt_us", median(durValues(enc, time.Microsecond)), "us")
	m.set("he.add_us", median(durValues(add, time.Microsecond)), "us")
	m.set("he.decrypt_us", median(durValues(dec, time.Microsecond)), "us")
	m.set("mpc.sign_of_masked_us", median(durValues(sign, time.Microsecond)), "us")
	return nil
}
