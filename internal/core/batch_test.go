package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"prever/internal/commit"
	"prever/internal/group"
	"prever/internal/token"
)

// --- Lane mechanics -------------------------------------------------------

// TestPipelinePerLaneOrdering drives a recording submit function with an
// interleaved batch from many producers and asserts every lane key's
// updates were processed in submission order.
func TestPipelinePerLaneOrdering(t *testing.T) {
	const producers, perProducer = 8, 40
	var mu sync.Mutex
	seen := make(map[string][]int)
	submit := func(u Update) (Receipt, error) {
		var n int
		fmt.Sscanf(u.ID, "n%d", &n)
		mu.Lock()
		seen[u.Producer] = append(seen[u.Producer], n)
		mu.Unlock()
		return Receipt{UpdateID: u.ID, Accepted: true}, nil
	}
	var us []Update
	for i := 0; i < perProducer; i++ {
		for w := 0; w < producers; w++ {
			us = append(us, Update{ID: fmt.Sprintf("n%d", i), Producer: fmt.Sprintf("w%d", w)})
		}
	}
	rs, err := SubmitConcurrent(submit, LaneKey, us)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r.UpdateID != us[i].ID {
			t.Fatalf("receipt %d is for %q, want %q", i, r.UpdateID, us[i].ID)
		}
	}
	if len(seen) != producers {
		t.Fatalf("saw %d producers, want %d", len(seen), producers)
	}
	for worker, order := range seen {
		if len(order) != perProducer {
			t.Fatalf("%s processed %d updates, want %d", worker, len(order), perProducer)
		}
		for i, n := range order {
			if n != i {
				t.Fatalf("%s out of order at %d: got %d", worker, i, n)
			}
		}
	}
}

// TestConcurrentErrorIsFirstInInputOrder pins SubmitConcurrent's error
// rule across lanes: the error returned is the first failing input's,
// not the first failing lane's. Lane A holds inputs 0 and 10 and fails at
// 10; lane B fails at 5, so B's error wins although A appears first.
func TestConcurrentErrorIsFirstInInputOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fails []int // inputs whose submit returns an error
		want  int   // input whose error SubmitConcurrent must return; -1 for none
	}{
		{"earlier lane fails later", []int{10, 5}, 5},
		{"earlier lane fails first", []int{0, 5}, 0},
		{"later lane fails alone", []int{7}, 7},
		{"no failure", nil, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			us := make([]Update, 11)
			for i := range us {
				lane := "B"
				if i == 0 || i == 10 {
					lane = "A"
				}
				us[i] = Update{ID: fmt.Sprintf("u%d", i), Producer: lane}
			}
			errOf := make(map[string]error)
			for _, i := range tc.fails {
				errOf[us[i].ID] = fmt.Errorf("input %d failed", i)
			}
			submit := func(u Update) (Receipt, error) {
				return Receipt{UpdateID: u.ID}, errOf[u.ID]
			}
			rs, err := SubmitConcurrent(submit, LaneKey, us)
			var want error
			if tc.want >= 0 {
				want = errOf[us[tc.want].ID]
			}
			if err != want {
				t.Fatalf("err = %v, want %v", err, want)
			}
			for i, r := range rs {
				if r.UpdateID != us[i].ID {
					t.Fatalf("receipt %d is for %q", i, r.UpdateID)
				}
			}
		})
	}
}

// --- PlainManager ---------------------------------------------------------

func TestPipelinePlainConcurrent(t *testing.T) {
	const producers, perProducer = 6, 30
	m := newPlain(t)
	var us []Update
	for i := 0; i < perProducer; i++ {
		for w := 0; w < producers; w++ {
			worker := fmt.Sprintf("w%d", w)
			us = append(us, taskUpdate(fmt.Sprintf("%s-t%d", worker, i), worker, 1, tBase().Add(time.Duration(i)*time.Minute)))
		}
	}
	rs, err := m.SubmitBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	seqs := make(map[string][]uint64) // per-producer ledger sequences
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("update %s rejected: %s", us[i].ID, r.Reason)
		}
		seqs[us[i].Producer] = append(seqs[us[i].Producer], r.LedgerSeq)
	}
	s := m.Stats()
	if want := int64(producers * perProducer); s.Submitted != want || s.Accepted != want {
		t.Fatalf("stats = %+v, want %d submitted+accepted", s, want)
	}
	if s.Rejected != 0 || s.Errors != 0 {
		t.Fatalf("unexpected rejections/errors: %+v", s)
	}
	// Per-lane ordering: each producer's ledger sequences are increasing.
	for w, ss := range seqs {
		for i := 1; i < len(ss); i++ {
			if ss[i] <= ss[i-1] {
				t.Fatalf("producer %s receipts out of order: %v", w, ss)
			}
		}
	}
	if s.Latency.Count != s.Submitted || s.Latency.P50 > s.Latency.P95 || s.Latency.P95 > s.Latency.P99 || s.Latency.P99 > s.Latency.Max {
		t.Fatalf("latency summary inconsistent: %+v", s.Latency)
	}
}

func TestPlainSubmitBatchOrderAndEnforcement(t *testing.T) {
	m := newPlain(t)
	var us []Update
	// 6 workers × 5 updates of 8h: all accepted (40h each); then one more
	// per worker: all rejected.
	for i := 0; i < 5; i++ {
		for w := 0; w < 6; w++ {
			worker := fmt.Sprintf("w%d", w)
			us = append(us, taskUpdate(fmt.Sprintf("%s-t%d", worker, i), worker, 8, tBase()))
		}
	}
	for w := 0; w < 6; w++ {
		worker := fmt.Sprintf("w%d", w)
		us = append(us, taskUpdate(fmt.Sprintf("%s-over", worker), worker, 8, tBase()))
	}
	rs, err := m.SubmitBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(us) {
		t.Fatalf("%d receipts for %d updates", len(rs), len(us))
	}
	for i, r := range rs {
		if r.UpdateID != us[i].ID {
			t.Fatalf("receipt %d is for %q, want %q", i, r.UpdateID, us[i].ID)
		}
		over := i >= 30
		if r.Accepted == over {
			t.Fatalf("receipt %d (%s): accepted = %v", i, r.UpdateID, r.Accepted)
		}
	}
	s := m.Stats()
	if s.Submitted != 36 || s.Accepted != 30 || s.Rejected != 6 {
		t.Fatalf("stats = %+v", s)
	}
}

// --- ZKBoundManager -------------------------------------------------------

func TestPipelineZKConcurrentGroups(t *testing.T) {
	const groups, perGroup = 4, 6
	params := commit.NewParams(group.TestGroup())
	m, err := NewZKBoundManager("zk-conc", params, 1000)
	if err != nil {
		t.Fatal(err)
	}
	owner := NewZKOwner(params, "zk-conc", 1000)
	// Proofs chain per group: produce each group's updates in order, then
	// interleave the groups into one batch.
	var us []ZKUpdate
	for i := 0; i < perGroup; i++ {
		for g := 0; g < groups; g++ {
			grp := fmt.Sprintf("g%d", g)
			u, err := owner.ProduceUpdate(fmt.Sprintf("%s-t%d", grp, i), grp, grp, 8)
			if err != nil {
				t.Fatal(err)
			}
			us = append(us, u)
		}
	}
	rs, err := m.SubmitZKBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("zk update %d (%s) rejected: %s", i, r.UpdateID, r.Reason)
		}
	}
	s := m.Stats()
	if want := int64(groups * perGroup); s.Submitted != want || s.Accepted != want {
		t.Fatalf("stats = %+v, want %d", s, want)
	}
	// The running commitments match the owner's totals.
	for g := 0; g < groups; g++ {
		grp := fmt.Sprintf("g%d", g)
		if got := owner.Total(grp); got != int64(perGroup)*8 {
			t.Fatalf("%s owner total = %d", grp, got)
		}
	}
}

// --- EncryptedManager (sequential fallback) -------------------------------

func TestEncryptedBatchSequentialFallback(t *testing.T) {
	m, pk := newEncrypted(t)
	var us []EncryptedUpdate
	for i := 0; i < 6; i++ {
		us = append(us, encUpdate(t, pk, fmt.Sprintf("t%d", i), "w1", 8, tBase().Add(time.Duration(i)*time.Hour)))
	}
	rs, err := m.SubmitEncryptedBatch(us)
	if err != nil {
		t.Fatal(err)
	}
	// 5×8 = 40 accepted; the 6th exceeds the FLSA bound. Sequential order
	// is what makes this deterministic — the serialized default batch path.
	for i, r := range rs {
		if r.UpdateID != us[i].ID {
			t.Fatalf("receipt %d out of order: %q", i, r.UpdateID)
		}
		if want := i < 5; r.Accepted != want {
			t.Fatalf("receipt %d accepted = %v: %s", i, r.Accepted, r.Reason)
		}
	}
	s := m.Stats()
	if s.Submitted != 6 || s.Accepted != 5 || s.Rejected != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// --- PublicPIRManager -----------------------------------------------------

func TestPipelinePIRConcurrentRegistrations(t *testing.T) {
	const n = 12
	m, auth := newPublicMgr(t)
	ces := make([]CredentialedEntry, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("attendee-%d", i)
		ces = append(ces, CredentialedEntry{
			Entry: PublicEntry{Key: key, Data: "ok"},
			Cred:  credential(t, auth, key),
		})
	}
	rs, err := m.SubmitCredentialedBatch(ces)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("registration %d rejected: %s", i, r.Reason)
		}
	}
	if m.Size() != n {
		t.Fatalf("directory size = %d, want %d", m.Size(), n)
	}
	if s := m.Stats(); s.Submitted != n || s.Accepted != n {
		t.Fatalf("stats = %+v", s)
	}
	if !m.AuditReplicas() {
		t.Fatal("PIR replicas diverged under concurrent updates")
	}
}

// --- Federations ----------------------------------------------------------

func TestTokenFederationBatch(t *testing.T) {
	fed, auth := newTokenFed(t)
	wallets := map[string]*token.Wallet{
		"alice": issueTokens(t, auth, "alice", 10),
		"bob":   issueTokens(t, auth, "bob", 10),
	}
	var subs []TaskSubmission
	for i := 0; i < 4; i++ {
		for _, w := range []string{"alice", "bob"} {
			subs = append(subs, TaskSubmission{
				ID: fmt.Sprintf("%s-t%d", w, i), Worker: w,
				Platform: "uber", Hours: 2, TS: tBase(),
			})
		}
	}
	rs, err := fed.SubmitTasks(subs, wallets)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("task %d rejected: %s", i, r.Reason)
		}
		if len(r.Spent) != 2 {
			t.Fatalf("task %d spent %d tokens, want 2", i, len(r.Spent))
		}
	}
	if _, err := fed.SubmitTasks([]TaskSubmission{{ID: "x", Worker: "carol", Platform: "uber", Hours: 1, TS: tBase()}}, wallets); err == nil {
		t.Fatal("missing wallet accepted")
	}
	if s := fed.Stats(); s.Submitted != 8 || s.Accepted != 8 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMPCFederationBatchConcurrentWorkers(t *testing.T) {
	helper, _ := fixtures(t)
	fed, err := NewMPCFederation("flsa-mpc", helper.PublicKey(), helper, 40, 168*time.Hour,
		[]string{"uber", "lyft"})
	if err != nil {
		t.Fatal(err)
	}
	var subs []TaskSubmission
	for i := 0; i < 3; i++ {
		for _, w := range []string{"alice", "bob", "carol"} {
			subs = append(subs, TaskSubmission{
				ID: fmt.Sprintf("%s-t%d", w, i), Worker: w,
				Platform: "uber", Hours: 8, TS: tBase().Add(time.Duration(i) * time.Hour),
			})
		}
	}
	rs, err := fed.SubmitTaskBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if !r.Accepted {
			t.Fatalf("task %d (%s) rejected: %s", i, r.UpdateID, r.Reason)
		}
	}
	// Each worker is at 24h; 17 more violates the 40h bound, 16 fits.
	over, err := fed.SubmitTask(TaskSubmission{ID: "alice-over", Worker: "alice", Platform: "lyft", Hours: 17, TS: tBase().Add(4 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if over.Accepted {
		t.Fatal("over-bound task accepted")
	}
	if s := fed.Stats(); s.Submitted != 10 || s.Accepted != 9 || s.Rejected != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
