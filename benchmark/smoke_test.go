package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// buildServer compiles cmd/prever-server from the enclosing repository.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prever-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/prever-server")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build prever-server: %v\n%s", err, out)
	}
	return bin
}

// Tiny versions of the two serving workloads against the real binary:
// the checks must pass and every metric input must be populated.
func TestServingWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots server processes")
	}
	bin := buildServer(t)
	tiny := map[string]servingSpec{
		"ycsb-a": {Rate: 100, Conns: 2, Keys: 200, ValueBytes: 1024, TxPerReq: 1, ReadShare: 0.5,
			Zipf: true, LoadPhase: true, SetupBoots: 2},
		"ingest-durable": {Durable: true, Rate: 10, Conns: 2, Keys: 100, ValueBytes: 64, TxPerReq: 64, SetupBoots: 2},
	}
	for name, spec := range tiny {
		spec := spec
		t.Run(name, func(t *testing.T) {
			p, err := runServing(spec, 3, time.Second, bin, t.TempDir(), 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(p.Problems) > 0 {
				t.Fatalf("checks failed: %v", p.Problems)
			}
			if p.Failed != 0 || p.Gen.Sent != int64(spec.Rate) || len(p.Gen.Lat["write"]) == 0 {
				t.Fatalf("sent %d failed %d writes %d", p.Gen.Sent, p.Failed, len(p.Gen.Lat["write"]))
			}
			if len(p.Setup) != spec.SetupBoots || len(p.Recover) == 0 || p.CPU <= 0 || len(p.RSSMiB) == 0 || len(p.Readback) != spec.Keys {
				t.Fatalf("setup %v recover %v cpu %v rss %v readback %d", p.Setup, p.Recover, p.CPU, p.RSSMiB, len(p.Readback))
			}
			m := metrics{}
			servingMetrics(m, &report{Sources: map[string]string{}, Diag: map[string]any{}}, name, spec, p)
			for _, n := range []string{"setup_s", "write_p50_ms", "write_p99_ms", "read_p50_ms", "server_cpu_us_per_op", "server_rss_mib", "recover_s"} {
				if m[n].Value <= 0 {
					t.Errorf("%s = %v", n, m[n].Value)
				}
			}
		})
	}
}

// A tiny RC1 round: every valid update accepted, every tampered or
// over-bound one rejected, in both engines.
func TestRC1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("proves over MODP2048")
	}
	spec := rc1Spec{Groups: 4, PerGroup: 2, MaxValue: 4, Producers: 2, HEBits: 512, SetupReps: 1, MinRounds: 1}
	r, err := runRC1(spec, 9, 0, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Problems) > 0 {
		t.Fatalf("checks failed: %v", r.Problems)
	}
	var zkBad, heBad int
	for _, u := range r.updates {
		if !u.ZKValid {
			zkBad++
		}
		if !u.EncValid {
			heBad++
		}
	}
	if zkBad != spec.tampered() || heBad != spec.tampered() {
		t.Fatalf("%d tampered ZK and %d over-bound HE updates, want %d each", zkBad, heBad, spec.tampered())
	}
	if r.Failed != 0 || r.Attempted != int64(2*len(r.updates)-zkBad-heBad) {
		t.Fatalf("attempted %d failed %d", r.Attempted, r.Failed)
	}
	if len(r.Prove) != len(r.updates) || len(r.ZKUps) != 1 || len(r.HEUps) != 1 || len(r.Restore) != 1 {
		t.Fatalf("prove %d zk %d he %d restore %d", len(r.Prove), len(r.ZKUps), len(r.HEUps), len(r.Restore))
	}
	// A group with a tampered update replays sequentially, so not every
	// submission was verified on the amortized path.
	if r.ZKStats.BatchVerified >= r.ZKStats.Submitted {
		t.Errorf("batch-verified %d of %d", r.ZKStats.BatchVerified, r.ZKStats.Submitted)
	}
}
