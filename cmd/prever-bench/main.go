// Command prever-bench runs the PReVer experiment suite (E1–E11, see
// DESIGN.md §3) and the open-loop load generator.
//
// Usage:
//
//	prever-bench [-scale quick|full] [-only E4] [-json]
//	prever-bench local  [-limit R] [-conns N] [-duration D] [-value B]
//	                    [-keys K] [-shards S] [-f F] [-json] [-check]
//	prever-bench remote -addr http://HOST:PORT [-limit R] [-conns N]
//	                    [-duration D] [-value B] [-keys K] [-json] [-check]
//
// The default mode regenerates the experiment tables recorded in
// EXPERIMENTS.md. `local` boots a complete in-process server on a
// loopback port and drives it over HTTP; `remote` drives an
// already-running prever-server. Both offer load open-loop: -limit R
// schedules R requests/second regardless of how fast the server
// answers (0 = closed loop, as fast as possible), so queueing delay
// under saturation shows up in the reported p50/p95/p99.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"prever/internal/api"
	"prever/internal/bench"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "local":
			runLoad(os.Args[2:], true)
			return
		case "remote":
			runLoad(os.Args[2:], false)
			return
		}
	}
	runExperiments(os.Args[1:])
}

// runLoad is the wavelet-style load mode shared by `local` and
// `remote`: only the server's origin differs.
func runLoad(args []string, local bool) {
	name := "remote"
	if local {
		name = "local"
	}
	fs := flag.NewFlagSet("prever-bench "+name, flag.ExitOnError)
	addrFlag := fs.String("addr", "", "server base URL (remote mode, e.g. http://127.0.0.1:9473)")
	limitFlag := fs.Int("limit", 1000, "offered load in requests/second (0 = closed loop)")
	connsFlag := fs.Int("conns", 4, "concurrent client connections")
	durationFlag := fs.Duration("duration", 5*time.Second, "how long to offer load")
	valueFlag := fs.Int("value", 64, "payload bytes per transaction")
	keysFlag := fs.Int("keys", 1024, "key-space size")
	shardsFlag := fs.Int("shards", 1, "chain shards (local mode)")
	fFlag := fs.Int("f", 1, "tolerated Byzantine peers per shard (local mode)")
	jsonFlag := fs.Bool("json", false, "emit the report as JSON")
	checkFlag := fs.Bool("check", false, "exit nonzero unless the run committed transactions without errors (smoke gate)")
	auditFlag := fs.Duration("audit", 0, "after the load run, poll GET /audit up to this long until every peer chain verifies and converges (0 = skip)")
	_ = fs.Parse(args)

	base := *addrFlag
	if local {
		var stop func()
		var err error
		base, stop, err = bench.StartLocalServer(*shardsFlag, *fFlag, 10*time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prever-bench: %v\n", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Fprintf(os.Stderr, "prever-bench: local server on %s\n", base)
	} else if base == "" {
		fmt.Fprintln(os.Stderr, "prever-bench: remote mode requires -addr")
		os.Exit(2)
	}

	report, err := bench.RunOpenLoad(base, bench.LoadConfig{
		Rate:       *limitFlag,
		Conns:      *connsFlag,
		Duration:   *durationFlag,
		ValueBytes: *valueFlag,
		Keys:       *keysFlag,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "prever-bench: %v\n", err)
		os.Exit(1)
	}
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintf(os.Stderr, "prever-bench: %v\n", err)
			os.Exit(1)
		}
	} else {
		report.Fprint(os.Stdout)
	}
	if *checkFlag {
		if report.Committed == 0 || report.Errors > 0 {
			fmt.Fprintf(os.Stderr, "prever-bench: smoke check FAILED: committed=%d errors=%d\n",
				report.Committed, report.Errors)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "prever-bench: smoke check ok: committed=%d at %.0f/s\n",
			report.Committed, report.AchievedRate())
	}
	if *auditFlag > 0 {
		if err := waitAudit(base, *auditFlag); err != nil {
			fmt.Fprintf(os.Stderr, "prever-bench: audit FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "prever-bench: audit ok: all peer chains verify and converge")
	}
}

// waitAudit polls GET /audit until the server reports every peer chain
// clean AND converged, or the timeout elapses. Convergence is eventual
// (peers apply asynchronously, and a freshly restarted server may still
// be state-transferring recovered replicas), so polling is the contract;
// a dirty chain is terminal and reported immediately.
func waitAudit(base string, timeout time.Duration) error {
	client := api.NewClient(base)
	deadline := time.Now().Add(timeout)
	var last api.AuditResponse
	var lastErr error
	for time.Now().Before(deadline) {
		last, lastErr = client.Audit()
		if lastErr == nil {
			if !last.Clean {
				return fmt.Errorf("chain verification failed: %+v", last.Shards)
			}
			if last.Converged {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	if lastErr != nil {
		return fmt.Errorf("audit unreachable after %s: %w", timeout, lastErr)
	}
	return fmt.Errorf("peers never converged within %s: %+v", timeout, last.Shards)
}

func runExperiments(args []string) {
	fs := flag.NewFlagSet("prever-bench", flag.ExitOnError)
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick or full")
	onlyFlag := fs.String("only", "", "run a single experiment (E1, E1b, E2..E11)")
	jsonFlag := fs.Bool("json", false, "emit machine-readable JSON tables instead of text")
	_ = fs.Parse(args)

	var scale bench.Scale
	switch strings.ToLower(*scaleFlag) {
	case "quick":
		scale = bench.Quick
	case "full":
		scale = bench.Full
	default:
		fmt.Fprintf(os.Stderr, "prever-bench: unknown scale %q (want quick or full)\n", *scaleFlag)
		os.Exit(2)
	}

	experiments := map[string]func(bench.Scale) (*bench.Table, error){
		"E1":  bench.E1YCSB,
		"E1B": bench.E1TPCC,
		"E2":  bench.E2Verify,
		"E3":  bench.E3Federated,
		"E4":  bench.E4Consensus,
		"E5":  bench.E5Integrity,
		"E6":  bench.E6PIR,
		"E7":  bench.E7DP,
		"E8":  bench.E8Adversary,
		"E9":  bench.E9OpenLoad,
		"E10": bench.E10Recovery,
		"E11": bench.E11Crypto,
	}

	start := time.Now()
	if *onlyFlag != "" {
		fn, ok := experiments[strings.ToUpper(*onlyFlag)]
		if !ok {
			fmt.Fprintf(os.Stderr, "prever-bench: unknown experiment %q\n", *onlyFlag)
			os.Exit(2)
		}
		tbl, err := fn(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prever-bench: %v\n", err)
			os.Exit(1)
		}
		if *jsonFlag {
			if err := tbl.FprintJSON(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "prever-bench: %v\n", err)
				os.Exit(1)
			}
		} else {
			tbl.Fprint(os.Stdout)
		}
	} else {
		run := bench.Run
		if *jsonFlag {
			run = bench.RunJSON
		}
		if err := run(os.Stdout, scale); err != nil {
			fmt.Fprintf(os.Stderr, "prever-bench: %v\n", err)
			os.Exit(1)
		}
	}
	if !*jsonFlag {
		fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
	}
}
