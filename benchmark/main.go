// Command benchmark is the repository's benchmark: three workloads that
// drive the PReVer serving path and its private-update engines, print
// end-to-end metrics by name and unit, and check every run's outputs.
//
//	benchmark --workload ycsb-a|ingest-durable|rc1-verify --seed N --seconds S --trace 0|1
//
// Run it through run.sh from the repository root, which builds
// cmd/prever-server and this command under .bench_build and passes
// -root and -server. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, measured by a traced run that also reports each
// layer's self time, the tracing overhead and, on ingest-durable, the
// reconciliation of layer CPU against the server's CPU per transaction.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//   - ycsb-a: YCSB workload A against an in-memory prever-server child
//     process: 10,000 keys of 1 KiB loaded untimed, then an open loop of
//     50% GET /get and 50% single-transaction POST /submit, Zipfian keys.
//   - ingest-durable: prever-server -data with its default snapshot
//     cadence; an open loop of POST /submit-batch with 64 puts of 64 B
//     over 1,000 live keys; then SIGKILL, restart on the same directory,
//     and recovery until /audit is clean and converged.
//   - rc1-verify: Research Challenge 1 in process: proof-carrying updates
//     (core.ZKOwner, MODP2048) verified by core.ZKBoundManager, and the
//     same values under Paillier verified by core.EncryptedManager, with a
//     seeded share of invalid updates that must be rejected.
//
// The gated end-to-end metrics (endToEndNames) are set-up CPU time, the
// server's CPU per operation and its resident memory, which every
// workload has. The workloads also report, ungated, their own further
// end-to-end figures (reportedNames): write and read latency and
// recovery time for the serving workloads, proving and verification
// rates for rc1-verify.
//
// The netsim link delay is zero, as prever-server runs it: consensus
// latency here is processor time and scheduling only.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Generator validity: a run whose generator, not the server, set the pace
// is invalid and fails.
const (
	// maxGenCPUShare bounds the generator's CPU over the window as a share
	// of its GOMAXPROCS: above it the generator was CPU-bound. Late
	// wake-ups alone do not invalidate a run; on a shared VM they mostly
	// follow the hypervisor's steal time, which the report gives.
	maxGenCPUShare = 0.8
	// maxAllBusyShare bounds the time every connection was busy: above it
	// the generator could not offer the rate through its connections
	// (Little's law: throughput is capped at connections / latency).
	maxAllBusyShare = 0.75
	// runDeadline stops a run that would overrun its time limit.
	runDeadline = 170 * time.Second
)

// endToEndNames and perLayerNames are the metrics a run prints with
// --trace 0 and --trace 1; BENCHMARK.json lists the same names.
// reportedNames are the further end-to-end figures of each workload:
// every run measures and reports them, but they are not gated, because
// on a shared 2-vCPU VM they did not repeat within the largest allowed
// bound. Latency followed the hypervisor's steal time (ycsb-a write p50
// went from 4.4 to 12.5 ms across ten runs as steal went from 17% to
// 35%), and the single-threaded engine rates followed the host's CPU
// speed (he_verify_ups spread 0.34 IQR over median across ten runs).
var (
	endToEndNames = []string{"setup_s", "server_cpu_us_per_op", "server_rss_mib"}
	reportedNames = map[string][]string{
		"ycsb-a":         {"write_p50_ms", "write_p99_ms", "read_p50_ms", "recover_s"},
		"ingest-durable": {"write_p50_ms", "write_p99_ms", "read_p50_ms", "recover_s"},
		"rc1-verify":     {"zk_prove_ms", "zk_verify_ups", "he_verify_ups"},
	}
	perLayerNames = []string{
		"api.decode_us_per_req", "api.encode_us_per_req", "api.allocs_per_req", "api.rtt_us",
		"mempool.add_ns_per_op", "mempool.drain_ns_per_op", "mempool.ops_per_batch", "mempool.rejected_ratio",
		"pbft.commit_us_per_batch", "pbft.cpu_us_per_tx", "pbft.allocs_per_tx", "pbft.alloc_bytes_per_tx",
		"pbft.msgs_per_tx", "pbft.view_changes",
		"chain.submit_us_per_tx", "chain.cpu_us_per_tx", "chain.allocs_per_tx", "chain.apply_cpu_us_per_tx",
		"chain.get_ns", "chain.snapshot_mib", "chain.snapshot_ms", "chain.restore_ms",
		"chain.verify_blocks_us_per_block", "chain.heap_growth_kib_per_tx",
		"merkle.append_ns_per_leaf", "merkle.root_us_per_block", "store.put_ns", "store.get_ns",
		"wal.append_sync_us", "wal.snapshot_ms", "wal.replay_ms", "wal.disk_mib",
		"zk.prove_bound_ms", "zk.verify_bound_ms", "zk.verify_bound_batch_ms_per_proof",
		"group.multiexp_us_per_term", "commit.add_us", "core.zk_batch_ratio", "ledger.put_us",
		"he.encrypt_us", "he.add_us", "he.decrypt_us", "mpc.sign_of_masked_us",
	}
)

var workloads = map[string]string{
	"ycsb-a":         "YCSB A (50% read, 50% single-tx update, Zipfian) on the in-memory HTTP serving path",
	"ingest-durable": "64-tx batch ingest over 1,000 live keys on a durable server, then SIGKILL and recovery",
	"rc1-verify":     "regulated updates on private data: ZK bound proofs and Paillier aggregate bounds, in process",
}

func ycsbSpec() servingSpec {
	return servingSpec{Rate: 300, Conns: 2, Keys: 10000, ValueBytes: 1024, TxPerReq: 1, ReadShare: 0.5,
		Zipf: true, LoadPhase: true, SetupBoots: 7}
}

func ingestSpec() servingSpec {
	return servingSpec{Durable: true, Rate: 25, Conns: 2, Keys: 1000, ValueBytes: 64, TxPerReq: 64,
		SetupBoots: 7}
}

func rc1FullSpec() rc1Spec {
	return rc1Spec{Groups: 8, PerGroup: 8, MaxValue: 8, Producers: 2, HEBits: 1024, SetupReps: 5, MinRounds: 3}
}

// rc1ProbeSpec is the small fixed RC1 round a traced serving run uses for
// the engine layers' probes.
func rc1ProbeSpec() rc1Spec {
	return rc1Spec{Groups: 4, PerGroup: 4, MaxValue: 8, Producers: 2, HEBits: 1024, SetupReps: 1, MinRounds: 5}
}

// options is one invocation.
type options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Root     string
	Server   string
	Work     string // working directory for data dirs, removed at exit
	Procs    int    // GOMAXPROCS of the server and the generator
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// report is the full account of a run, written beside the spans.
type report struct {
	Meta      map[string]any    `json:"meta"`
	Result    result            `json:"result"`
	Reported  metrics           `json:"reported_end_to_end"`
	Sources   map[string]string `json:"sources"`
	Diag      map[string]any    `json:"diagnostics"`
	Problems  []string          `json:"problems,omitempty"`
	Layers    []layerTime       `json:"layer_self_times,omitempty"`
	Overhead  map[string]any    `json:"tracing_overhead,omitempty"`
	Reconcile map[string]any    `json:"reconciliation,omitempty"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "workload name")
	fs.Int64Var(&o.Seed, "seed", 1, "input seed")
	fs.IntVar(&o.Seconds, "seconds", 10, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.Root, "root", ".", "repository root")
	fs.StringVar(&o.Server, "server", "", "prever-server binary")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if _, ok := workloads[o.Workload]; !ok {
		return 2, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Seconds < 1 || (trace != 0 && trace != 1) {
		return 2, fmt.Errorf("bad --seconds %d or --trace %d", o.Seconds, trace)
	}
	o.Trace = trace == 1
	o.Procs = runtime.NumCPU()
	if o.Procs > 2 {
		o.Procs = 2
	}
	runtime.GOMAXPROCS(o.Procs)
	if o.Workload != "rc1-verify" {
		if _, err := os.Stat(o.Server); err != nil {
			return 2, fmt.Errorf("server binary: %w", err)
		}
	}
	base := filepath.Join(o.Root, ".bench_build", "work")
	outDir := filepath.Join(o.Root, ".bench_build", "results")
	for _, d := range []string{base, outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return 1, err
		}
	}
	work, err := os.MkdirTemp(base, o.Workload+"-")
	if err != nil {
		return 1, err
	}
	o.Work = work
	defer os.RemoveAll(work)
	watchdog := time.AfterFunc(runDeadline, func() {
		// Child servers die with this process (Pdeathsig).
		fmt.Fprintf(os.Stderr, "benchmark: run exceeded %s\n", runDeadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	tot0, st0 := cpuTimes()
	rep, err := execute(o)
	if err != nil {
		return 1, err
	}
	rep.Meta = meta(o)
	tot1, st1 := cpuTimes()
	rep.Meta["hypervisor_steal_share"] = stealShare(tot0, st0, tot1, st1)
	name := fmt.Sprintf("%s-seed%d-trace%d", o.Workload, o.Seed, trace)
	repJSON, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(filepath.Join(outDir, name+".json"), repJSON, 0o644); err != nil {
		return 1, err
	}
	printReport(stdout, o, rep, filepath.Join(outDir, name+".json"))
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Result.Correct {
		return 1, fmt.Errorf("run failed its checks: %s", strings.Join(rep.Problems, "; "))
	}
	return 0, nil
}

// execute runs the workload (and, traced, its layer probes).
func execute(o options) (*report, error) {
	rep := &report{Sources: map[string]string{}, Diag: map[string]any{}}
	e2e := metrics{}
	window := time.Duration(o.Seconds) * time.Second
	var pass *servingPass
	var rc *rc1Result
	var spec servingSpec
	switch o.Workload {
	case "ycsb-a", "ingest-durable":
		spec = ycsbSpec()
		if o.Workload == "ingest-durable" {
			spec = ingestSpec()
		}
		var err error
		pass, err = runServing(spec, o.Seed, window, o.Server, o.Work, o.Procs, nil)
		if err != nil {
			return nil, err
		}
		servingMetrics(e2e, rep, o.Workload, spec, pass)
		rep.Result.Attempted, rep.Result.Failed = pass.Attempted, pass.Failed
		rep.Problems = append(rep.Problems, pass.Problems...)
	case "rc1-verify":
		var err error
		rc, err = runRC1(rc1FullSpec(), o.Seed, window, nil)
		if err != nil {
			return nil, err
		}
		rc1Metrics(e2e, rep, rc)
		rep.Result.Attempted, rep.Result.Failed = rc.Attempted, rc.Failed
		rep.Problems = append(rep.Problems, rc.Problems...)
		spec = ingestSpec() // shapes the serving-layer probes of a traced run
	}
	rep.Result.Metrics = pick(rep, e2e, endToEndNames)
	rep.Reported = pick(rep, e2e, reportedNames[o.Workload])
	rep.Result.Correct = len(rep.Problems) == 0
	if !o.Trace {
		return rep, nil
	}
	layer, err := traced(o, rep, e2e, spec, pass, rc)
	if err != nil {
		return nil, err
	}
	rep.Result.Metrics = pick(rep, layer, perLayerNames)
	rep.Result.Correct = len(rep.Problems) == 0
	return rep, nil
}

// pick returns the named metrics of m; a missing one is a failed check.
func pick(rep *report, m metrics, names []string) metrics {
	out := metrics{}
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			rep.Problems = append(rep.Problems, "metric missing: "+n)
			continue
		}
		out[n] = v
	}
	return out
}

// servingMetrics fills the end-to-end metrics of a serving pass.
func servingMetrics(m metrics, rep *report, workload string, spec servingSpec, p *servingPass) {
	g := p.Gen
	writes := durValues(g.Lat["write"], time.Millisecond)
	m.set("setup_s", median(durValues(p.Setup, time.Second)), "s")
	m.set("write_p50_ms", quantile(writes, 0.5), "ms")
	m.set("write_p99_ms", quantile(writes, 0.99), "ms")
	if workload == "ycsb-a" {
		m.set("read_p50_ms", quantile(durValues(g.Lat["read"], time.Millisecond), 0.5), "ms")
		rep.Sources["read_p50_ms"] = "workload: GET /get in the window"
		rep.Sources["recover_s"] = fmt.Sprintf("workload: in-memory server cold restart (SIGKILL, exec, /health, clean converged /audit), median of %d", len(p.Recover))
	} else {
		m.set("read_p50_ms", quantile(durValues(p.Readback, time.Millisecond), 0.5), "ms")
		rep.Sources["read_p50_ms"] = "workload: GET /get read-back of every key after recovery"
		rep.Sources["recover_s"] = "workload: SIGKILL, exec on the same -data, /health, clean converged /audit"
	}
	m.set("server_cpu_us_per_op", float64(p.CPU.Microseconds())/float64(max(p.Completed, 1)), "us")
	m.set("server_rss_mib", median(p.RSSMiB), "MiB")
	m.set("recover_s", median(durValues(p.Recover, time.Second)), "s")
	rep.Sources["setup_s"] = fmt.Sprintf("workload: server CPU seconds from exec to the first /health 200, median of %d boots", len(p.Setup))
	rep.Sources["server_cpu_us_per_op"] = "workload: server user+sys CPU over the window per completed op"
	rep.Sources["server_rss_mib"] = "workload: median of the server's VmRSS sampled every 250 ms over the window"
	rep.Diag["server_peak_rss_mib"] = p.PeakRSSMiB
	rep.Sources["write_p50_ms"] = "workload: from scheduled send time"
	rep.Sources["write_p99_ms"] = "workload: from scheduled send time"
	genCPU := p.GenCPU.Seconds() / (g.Elapsed.Seconds() * float64(runtime.GOMAXPROCS(0)))
	valid := genCPU <= maxGenCPUShare && g.allBusyShare() <= maxAllBusyShare
	if !valid {
		rep.Problems = append(rep.Problems, fmt.Sprintf("invalid run: the generator saturated (its CPU share %.3f, limit %.2f; all connections busy %.3f of the window, limit %.2f)",
			genCPU, maxGenCPUShare, g.allBusyShare(), maxAllBusyShare))
	}
	reads := summarize(g.Lat["read"])
	rep.Diag["generator"] = map[string]any{
		"mode": "open loop, fixed rate", "rate_per_s": spec.Rate, "conns": spec.Conns, "sent": g.Sent,
		"failed": g.Failed, "late_after_ms": float64(genConfig{Rate: spec.Rate}.lateAfter()) / 1e6, "late_share": g.lateShare(),
		"self_late_share": g.selfLateShare(), "all_busy_share": g.allBusyShare(),
		"elapsed_s": g.Elapsed.Seconds(), "valid": valid, "first_error": g.FirstError,
		"generator_cpu_share": genCPU, "hypervisor_steal_share": p.Steal,
	}
	rep.Diag["send_lateness"] = summarize(g.StartLate)
	rep.Diag["wake_lateness"] = summarize(g.WakeLate)
	rep.Diag["write_latency"] = summarize(g.Lat["write"])
	rep.Diag["read_latency"] = reads
	rep.Diag["readback_latency"] = summarize(p.Readback)
	rep.Diag["setup_s_samples"] = durValues(p.Setup, time.Second)
	rep.Diag["setup_wall_s_samples"] = durValues(p.SetupWall, time.Second)
	rep.Diag["recover_s_samples"] = durValues(p.Recover, time.Second)
	rep.Diag["server_cpu_share_of_window"] = p.CPU.Seconds() / g.Elapsed.Seconds()
	rep.Diag["completed_ops"] = p.Completed
	rep.Diag["fail_ratio"] = ratio(float64(p.Failed), float64(p.Attempted))
	rep.Diag["load_phase_s"] = p.LoadPhase.Seconds()
	rep.Diag["mempool_ops_per_batch"] = p.Stats.Total.Batches.MeanSize()
	if p.DataDir != "" {
		rep.Diag["data_dir_mib"] = dirMiB(p.DataDir)
	}
}

// rc1EngineMetrics fills the metrics the engines own. They are CPU
// time, not wall time: the engines are CPU-bound, and on a shared VM the
// hypervisor's steal time moved wall time between rounds by several
// times as much as CPU time (wall-clock figures are in the diagnostics).
// Throughput is pooled over all rounds, which spreads the garbage
// collector's cycles evenly instead of charging them to whichever round
// they land in.
func rc1EngineMetrics(m metrics, r *rc1Result) {
	m.set("zk_prove_ms", float64(r.ProveCPU.Microseconds())/1e3/float64(max(len(r.Prove), 1)), "ms")
	m.set("zk_verify_ups", pooledUps(r.ZKCPU, len(r.updates)), "1/s")
	m.set("he_verify_ups", pooledUps(r.HECPU, len(r.updates)), "1/s")
}

// pooledUps is updates decided per CPU-second over every round, each
// round deciding n updates.
func pooledUps(rounds []time.Duration, n int) float64 {
	var total time.Duration
	for _, d := range rounds {
		total += d
	}
	return ratio(float64(n*len(rounds)), total.Seconds())
}

// rc1Metrics fills the end-to-end metrics of the rc1-verify workload. The
// engines run in this process, which plays the server.
func rc1Metrics(m metrics, rep *report, r *rc1Result) {
	rc1EngineMetrics(m, r)
	m.set("setup_s", median(durValues(r.Setup, time.Second)), "s")
	m.set("server_cpu_us_per_op", float64(r.CPU.Microseconds())/float64(max(r.Decided, 1)), "us")
	rss, err := procPeakRSSMiB(os.Getpid())
	if err != nil {
		rep.Problems = append(rep.Problems, fmt.Sprintf("read own RSS: %v", err))
	}
	m.set("server_rss_mib", rss, "MiB")
	rep.Sources = map[string]string{
		"setup_s":              fmt.Sprintf("workload: CPU seconds for commitment params, Paillier keygen and both managers; median of %d", len(r.Setup)),
		"server_cpu_us_per_op": "workload: this process's CPU over the verification rounds per decided update",
		"server_rss_mib":       "workload: this process's peak RSS (the engines run in process)",
		"zk_prove_ms":          "workload: producers' CPU time per proof-carrying update",
		"zk_verify_ups":        "workload: updates decided per CPU-second of SubmitZKBatch, pooled over the rounds",
		"he_verify_ups":        "workload: updates decided per CPU-second of SubmitEncryptedBatch, pooled over the rounds",
	}
	rep.Diag["rounds"] = r.Rounds
	rep.Diag["window_s"] = r.Window.Seconds()
	rep.Diag["zk_call_ms"] = durValues(r.ZKCalls, time.Millisecond)
	rep.Diag["he_call_ms"] = durValues(r.HECalls, time.Millisecond)
	rep.Diag["zk_call_cpu_ms"] = durValues(r.ZKCPU, time.Millisecond)
	rep.Diag["he_call_cpu_ms"] = durValues(r.HECPU, time.Millisecond)
	rep.Diag["zk_prove_wall_ms_p50"] = median(durValues(r.Prove, time.Millisecond))
	rep.Diag["zk_wall_ups_p50"] = wallUps(r.ZKCalls, len(r.updates))
	rep.Diag["he_wall_ups_p50"] = wallUps(r.HECalls, len(r.updates))
	rep.Diag["zk_ups_samples"] = r.ZKUps
	rep.Diag["he_ups_samples"] = r.HEUps
	rep.Diag["verified_read_ms_p50"] = median(durValues(r.Reads, time.Millisecond))
	rep.Diag["zk_restore_ms_p50"] = median(durValues(r.Restore, time.Millisecond))
	rep.Diag["encrypt_ms_p50"] = median(durValues(r.Encrypt, time.Millisecond))
	rep.Diag["setup_s_samples"] = durValues(r.Setup, time.Second)
	rep.Diag["setup_wall_s_samples"] = durValues(r.SetupWall, time.Second)
	rep.Diag["fail_ratio"] = ratio(float64(r.Failed), float64(r.Attempted))
	rep.Diag["zk_batch_verified"] = r.ZKStats.BatchVerified
	rep.Diag["zk_submitted"] = r.ZKStats.Submitted
}

// wallUps is updates per second of wall time for the median call.
func wallUps(calls []time.Duration, n int) float64 {
	return float64(n) / median(durValues(calls, time.Second))
}

// meta records what a result needs to be compared with another.
func meta(o options) map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", o.Root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	m := map[string]any{
		"workload": o.Workload, "description": workloads[o.Workload], "seed": o.Seed, "seconds": o.Seconds,
		"trace": o.Trace, "commit": commit, "source_sha256": sourceDigest(o.Root),
		"go_version": runtime.Version(), "gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "cpu_model": cpuModel(),
		"netsim_link_delay": "zero: consensus latency is CPU and scheduling only",
	}
	switch o.Workload {
	case "ycsb-a", "ingest-durable":
		s := ycsbSpec()
		if o.Workload == "ingest-durable" {
			s = ingestSpec()
		}
		m["gomaxprocs_server"] = o.Procs
		m["server"] = map[string]any{"shards": 1, "f": 1, "durable": s.Durable, "knobs": "defaults"}
		m["rate_per_s"], m["conns"], m["keys"], m["value_bytes"], m["tx_per_request"] = s.Rate, s.Conns, s.Keys, s.ValueBytes, s.TxPerReq
		m["read_share"] = s.ReadShare
	case "rc1-verify":
		s := rc1FullSpec()
		m["gomaxprocs_server"] = "in process"
		m["groups"], m["updates_per_group"], m["bound"], m["paillier_bits"], m["producers"] = s.Groups, s.PerGroup, s.bound(), s.HEBits, s.Producers
		m["group"] = "MODP2048"
	}
	return m
}

// sourceDigest hashes the repository's Go sources and go.mod files, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	var files []string
	_ = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return nil
		}
		if info.IsDir() && (strings.HasPrefix(info.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if info.Mode().IsRegular() && (strings.HasSuffix(path, ".go") || info.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// printReport writes the human-readable summary that precedes the result.
func printReport(w io.Writer, o options, rep *report, path string) {
	fmt.Fprintf(w, "workload %s  seed %d  window %ds  trace %v  (%s)\n", o.Workload, o.Seed, o.Seconds, o.Trace, workloads[o.Workload])
	fmt.Fprintf(w, "netsim link delay is zero: consensus latency is CPU and scheduling only\n")
	names := make([]string, 0, len(rep.Result.Metrics))
	for n := range rep.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.Result.Metrics[n]
		src := rep.Sources[n]
		if src != "" {
			src = "  [" + src + "]"
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-6s%s\n", n, v.Value, v.Unit, src)
	}
	for _, n := range reportedNames[o.Workload] {
		v := rep.Reported[n]
		fmt.Fprintf(w, "  %-40s %14.6g %-6s  [reported, not gated: %s]\n", n, v.Value, v.Unit, rep.Sources[n])
	}
	if g, ok := rep.Diag["generator"]; ok {
		b, _ := json.Marshal(g)
		fmt.Fprintf(w, "generator: %s\n", b)
	}
	for _, lt := range rep.Layers {
		fmt.Fprintf(w, "  self time %-10s %10.2f ms of %10.2f ms in %6d spans  %s\n", lt.Layer, lt.SelfMS, lt.WallMS, lt.Spans, layerEffects[lt.Layer])
	}
	if rep.Overhead != nil {
		b, _ := json.Marshal(rep.Overhead)
		fmt.Fprintf(w, "tracing overhead: %s\n", b)
	}
	if rep.Reconcile != nil {
		b, _ := json.Marshal(rep.Reconcile)
		fmt.Fprintf(w, "reconciliation: %s\n", b)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	fmt.Fprintf(w, "report: %s\n", path)
}
