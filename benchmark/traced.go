package main

import (
	"fmt"
	"path/filepath"
	"time"

	"prever/internal/chain"
)

// walAppendsPerBatch is how many fsynced journal records a durable PBFT
// replica writes per executed batch (pre-prepare, commit, execution),
// and walReplicas how many replicas journal it (3f+1, f=1).
const (
	walAppendsPerBatch = 3
	walReplicas        = 4
)

// layerEffects says, per layer, which end-to-end figures a change to it
// should move, on which workload, and where it should not.
var layerEffects = map[string]string{
	"api":     "moves read_p50_ms, write_p50_ms, server_cpu_us_per_op on ycsb-a; barely ingest-durable (64 tx per request); not rc1-verify",
	"mempool": "moves write_p50_ms on ycsb-a (flush wait), server_cpu_us_per_op on ingest-durable; not read_p50_ms",
	"pbft":    "moves server_cpu_us_per_op and write_p50_ms on ingest-durable, write_p50_ms on ycsb-a; not read_p50_ms, not rc1-verify",
	"chain":   "moves server_cpu_us_per_op, write_p99_ms, server_rss_mib, recover_s on ingest-durable, read_p50_ms via get; not rc1-verify",
	"merkle":  "moves server_cpu_us_per_op on ingest-durable; not rc1-verify",
	"store":   "moves server_cpu_us_per_op on ingest-durable, read_p50_ms on ycsb-a; not rc1-verify",
	"wal":     "moves write_p50_ms, write_p99_ms, recover_s on ingest-durable; nothing on ycsb-a (in memory) or rc1-verify",
	"zk":      "moves zk_prove_ms, zk_verify_ups, server_cpu_us_per_op on rc1-verify; not the serving workloads",
	"group":   "moves zk_prove_ms, zk_verify_ups, server_cpu_us_per_op on rc1-verify; not the serving workloads",
	"commit":  "moves zk_verify_ups on rc1-verify; not the serving workloads",
	"core":    "moves zk_verify_ups, server_cpu_us_per_op on rc1-verify; not the serving workloads",
	"ledger":  "moves zk_verify_ups on rc1-verify; not the serving workloads",
	"he":      "moves he_verify_ups, server_cpu_us_per_op on rc1-verify; not the serving workloads",
	"mpc":     "moves he_verify_ups, server_cpu_us_per_op on rc1-verify; not the serving workloads",
}

// traced runs the workload again with spans on, then the layer probes,
// and returns the per-layer metrics. untraced holds the end-to-end
// metrics of the untraced pass made in the same invocation.
func traced(o options, rep *report, untraced metrics, spec servingSpec, pass *servingPass, rc *rc1Result) (metrics, error) {
	tr := newTracer()
	m := metrics{}
	window := time.Duration(o.Seconds) * time.Second
	var snapPeer *chain.Peer
	var closeStack func()
	defer func() {
		if closeStack != nil {
			closeStack()
		}
	}()
	tracedE2E := metrics{}
	var apiAddr string
	var batchStats chain.Stats

	switch o.Workload {
	case "ycsb-a", "ingest-durable":
		tp, err := runServing(spec, o.Seed, window, "", filepath.Join(o.Work, "traced"), o.Procs, tr)
		if err != nil {
			return nil, err
		}
		closeStack = tp.stack.close
		rep.Problems = append(rep.Problems, tp.Problems...)
		writes := durValues(tp.Gen.Lat["write"], time.Millisecond)
		tracedE2E.set("write_p50_ms", quantile(writes, 0.5), "ms")
		tracedE2E.set("write_p99_ms", quantile(writes, 0.99), "ms")
		if o.Workload == "ycsb-a" {
			tracedE2E.set("read_p50_ms", quantile(durValues(tp.Gen.Lat["read"], time.Millisecond), 0.5), "ms")
		}
		apiAddr = tp.stack.Addr
		snapPeer = tp.stack.shard.Peers()[0]
		batchStats = pass.Stats.Total
		rep.Diag["traced_generator"] = map[string]any{"sent": tp.Gen.Sent, "late_share": tp.Gen.lateShare(), "all_busy_share": tp.Gen.allBusyShare()}
	case "rc1-verify":
		trc, err := runRC1(rc1FullSpec(), o.Seed, window, tr)
		if err != nil {
			return nil, err
		}
		rep.Problems = append(rep.Problems, trc.Problems...)
		rc1EngineMetrics(tracedE2E, trc)
		tracedE2E.set("setup_s", median(durValues(trc.Setup, time.Second)), "s")
		rc = trc
		s, err := startInproc("")
		if err != nil {
			return nil, err
		}
		closeStack = s.close
		if err := waitHealthy(s.Addr, 30*time.Second); err != nil {
			return nil, err
		}
		apiAddr = s.Addr
	}
	overhead := map[string]any{"note": "traced minus untraced pass of the same invocation"}
	if o.Workload != "rc1-verify" {
		overhead["note"] = "the traced pass boots the same stack in this process (spans cannot cross into the child server), so the gap also holds the process-boundary difference"
	}
	for name, tv := range tracedE2E {
		uv := untraced[name]
		overhead[name] = map[string]float64{"untraced": uv.Value, "traced": tv.Value, "gap": tv.Value - uv.Value, "gap_share": ratio(tv.Value-uv.Value, uv.Value)}
	}
	rep.Overhead = overhead

	if err := probeAPI(m, spec, o.Seed, apiAddr, tr); err != nil {
		return nil, err
	}
	var snap []byte
	if snapPeer != nil {
		var err error
		if snap, err = probeSnapshot(m, snapPeer, tr); err != nil {
			return nil, err
		}
	}
	closeStack()
	closeStack = nil

	if err := probeMempool(m, spec, tr); err != nil {
		return nil, err
	}
	if err := probePBFT(m, spec, tr); err != nil {
		return nil, err
	}
	cp, err := probeChain(m, spec, tr)
	if err != nil {
		return nil, err
	}
	if snapPeer == nil {
		// No traced serving stack: snapshot the chain probe's peer.
		if snap, err = probeSnapshot(m, cp.peer(), tr); err != nil {
			cp.close()
			return nil, err
		}
		batchStats = cp.sharded.Stats()
	}
	cp.close()
	m.set("mempool.ops_per_batch", batchStats.Batches.MeanSize(), "count")
	m.set("mempool.rejected_ratio", ratio(float64(batchStats.Pool.RejectedFull), float64(batchStats.Pool.Admitted+batchStats.Pool.RejectedFull)), "ratio")
	mempoolUS := (m["mempool.add_ns_per_op"].Value + m["mempool.drain_ns_per_op"].Value) / 1e3
	m.set("chain.apply_cpu_us_per_tx", m["chain.cpu_us_per_tx"].Value-m["pbft.cpu_us_per_tx"].Value-mempoolUS, "us")
	rep.Sources["chain.apply_cpu_us_per_tx"] = "derived: chain.cpu_us_per_tx - pbft.cpu_us_per_tx - mempool add and drain"

	probeMerkleStore(m, spec, tr)
	replayDir := ""
	if pass != nil && pass.DataDir != "" {
		replayDir = filepath.Join(pass.DataDir, "shard0", "peer0")
	}
	walCPU, err := probeWAL(m, spec, filepath.Join(o.Work, "walprobe"), snap, replayDir, tr)
	if err != nil {
		return nil, err
	}
	if pass != nil && pass.DataDir != "" {
		m.set("wal.disk_mib", dirMiB(pass.DataDir), "MiB")
		rep.Sources["wal.disk_mib"] = "workload: the server's data directory after recovery"
		rep.Sources["wal.replay_ms"] = "workload: wal.Open on peer0's directory after the run"
	} else {
		rep.Sources["wal.disk_mib"] = "probe: the probe's own log"
		rep.Sources["wal.replay_ms"] = "probe: wal.Open on the probe's own log"
	}

	if rc == nil {
		// A serving workload: a small RC1 round sets up the engines.
		if rc, err = runRC1(rc1ProbeSpec(), o.Seed, 0, tr); err != nil {
			return nil, err
		}
		rep.Problems = append(rep.Problems, rc.Problems...)
	}
	if err := probeZK(m, rc.sys, batchRatio{rc.ZKStats.BatchVerified, rc.ZKStats.Submitted}, o.Seed, tr); err != nil {
		return nil, err
	}
	if err := probeHE(m, rc.sys, tr); err != nil {
		return nil, err
	}

	rep.Layers = selfTimes(tr.Spans())
	rep.Diag["layer_effects"] = layerEffects
	spanFile := filepath.Join(o.Root, ".bench_build", "results", fmt.Sprintf("%s-seed%d-spans.jsonl", o.Workload, o.Seed))
	if err := tr.WriteFile(spanFile); err != nil {
		return nil, err
	}
	rep.Diag["spans_file"] = spanFile
	rep.Diag["spans"] = len(tr.Spans())

	if o.Workload == "ingest-durable" {
		rep.Reconcile = reconcile(m, untraced, spec, walCPU)
	}
	return m, nil
}

// reconcile sets the sum of per-layer CPU per transaction against the
// server's measured CPU per committed transaction.
func reconcile(m, e2e metrics, spec servingSpec, walCPUPerAppend time.Duration) map[string]any {
	perBatch := m["mempool.ops_per_batch"].Value
	if perBatch <= 0 {
		perBatch = float64(spec.TxPerReq)
	}
	parts := map[string]float64{
		"api":         (m["api.decode_us_per_req"].Value + m["api.encode_us_per_req"].Value) / float64(spec.TxPerReq),
		"mempool":     (m["mempool.add_ns_per_op"].Value + m["mempool.drain_ns_per_op"].Value) / 1e3,
		"pbft":        m["pbft.cpu_us_per_tx"].Value,
		"chain_apply": m["chain.apply_cpu_us_per_tx"].Value,
		"wal":         float64(walCPUPerAppend.Nanoseconds()) / 1e3 * walAppendsPerBatch * walReplicas / perBatch,
	}
	var sum float64
	for _, v := range parts {
		sum += v
	}
	server := e2e["server_cpu_us_per_op"].Value
	unexplained := ratio(server-sum, server)
	out := map[string]any{
		"layers_us_per_tx":      parts,
		"layer_sum_us_per_tx":   sum,
		"server_cpu_us_per_op":  server,
		"unexplained_share":     unexplained,
		"target":                "within +/-20%",
		"within_target":         unexplained >= -0.2 && unexplained <= 0.2,
		"wal_estimate":          fmt.Sprintf("%d fsynced appends of a batch-sized record per replica per batch, %d replicas", walAppendsPerBatch, walReplicas),
		"api_covers":            "JSON decode, Validate, ToChain and response encode only",
		"ops_per_batch_applied": perBatch,
	}
	switch {
	case unexplained > 0.2:
		out["likely_owner"] = "net/http (connection handling, header parsing, response writing) and the garbage collector's background work: no layer probe measures them"
	case unexplained < -0.2:
		out["likely_owner"] = "the probes overcount: they run layers alone, without the overlap and batching the server gets"
	}
	return out
}
