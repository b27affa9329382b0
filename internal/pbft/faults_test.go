package pbft

import (
	"fmt"
	"testing"
	"time"

	"prever/internal/netsim"
)

// TestLateTimerDoesNotTriggerSpuriousViewChange is the deterministic
// regression test for the view-change-timer bug: a timer could fire and
// block on the replica mutex while execution stopped it, and the callback
// would then start a view change for a request that had already executed.
// The fix re-checks the executed set inside the callback, so invoking the
// callback directly after execution must be a no-op.
func TestLateTimerDoesNotTriggerSpuriousViewChange(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	backup := c.replicas[1]
	if err := backup.Submit("cli", 1, []byte("op-1"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	req := Request{Client: "cli", Seq: 1, Op: []byte("op-1")}
	// Simulate the timer losing the race with execution: the AfterFunc
	// fires late, after the request executed and Stop was called.
	backup.onViewChangeTimeout(req)
	// A spurious view change would propagate within this window.
	time.Sleep(100 * time.Millisecond)
	for _, r := range c.replicas {
		if v := r.View(); v != 0 {
			t.Fatalf("replica %s moved to view %d after late timer on executed request", r.ID(), v)
		}
	}
}

// TestExecutedWorkloadNeverIncrementsView soaks the timer/execution race:
// every request is submitted through a backup (arming view-change timers
// on all replicas) with a timeout short enough that late-firing timers
// are likely. A workload that fully executes must leave the view at 0.
func TestExecutedWorkloadNeverIncrementsView(t *testing.T) {
	c := newCluster(t, 1, Options{ViewTimeout: 150 * time.Millisecond}, netsim.Config{})
	backup := c.replicas[2]
	const ops = 30
	for i := 0; i < ops; i++ {
		if err := backup.Submit("cli", uint64(i+1), []byte(fmt.Sprintf("op-%d", i)), 2*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Let any stale timers from the workload fire.
	time.Sleep(300 * time.Millisecond)
	for _, r := range c.replicas {
		if v := r.View(); v != 0 {
			t.Fatalf("fully-executed workload moved replica %s to view %d", r.ID(), v)
		}
		if got := r.Executed(); got != ops {
			t.Fatalf("replica %s executed %d/%d", r.ID(), got, ops)
		}
	}
}

// TestRestartCatchesUpViaStateTransfer crashes a backup mid-workload and
// verifies the restarted replica pulls the missed batches from f+1
// agreeing peers and converges on the identical applied stream.
func TestRestartCatchesUpViaStateTransfer(t *testing.T) {
	c := newCluster(t, 1, Options{}, netsim.Config{})
	primary, victim := c.replicas[0], c.replicas[3]
	submit := func(i int) {
		t.Helper()
		if err := primary.Submit("cli", uint64(i+1), []byte(fmt.Sprintf("op-%d", i)), 2*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		submit(i)
	}
	if err := victim.Crash(); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 12; i++ {
		submit(i)
	}
	if victim.Executed() >= 12 {
		t.Fatal("crashed replica kept executing")
	}
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && victim.Executed() < 12 {
		time.Sleep(time.Millisecond)
	}
	if got := victim.Executed(); got != 12 {
		t.Fatalf("restarted replica executed %d/12", got)
	}
	want := c.appliedAt("p0")
	got := c.appliedAt("p3")
	if len(got) != len(want) {
		t.Fatalf("restarted replica applied %d ops, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restarted replica diverges at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestClientFailsOverOnPrimaryCrash kills the primary mid-workload; the
// failover client must ride the view change onto the next primary, and
// retried requests must execute exactly once thanks to client-seq dedup.
func TestClientFailsOverOnPrimaryCrash(t *testing.T) {
	c := newCluster(t, 1, Options{ViewTimeout: 200 * time.Millisecond}, netsim.Config{})
	client, err := NewClient(c.net, c.replicas, "cli", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := client.Submit([]byte(fmt.Sprintf("pre-%d", i)), 5*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := c.replicas[0].Crash(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := client.Submit([]byte(fmt.Sprintf("post-%d", i)), 10*time.Second); err != nil {
			t.Fatalf("post-crash submit %d: %v", i, err)
		}
	}
	// Survivors moved past view 0 and applied every acked op exactly once.
	surv := c.replicas[1]
	if surv.View() == 0 {
		t.Fatal("survivor never left view 0 after primary crash")
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && len(c.appliedAt(surv.ID())) < 6 {
		time.Sleep(time.Millisecond)
	}
	counts := map[string]int{}
	for _, op := range c.appliedAt(surv.ID()) {
		counts[op]++
	}
	for i := 0; i < 3; i++ {
		for _, pfx := range []string{"pre", "post"} {
			op := fmt.Sprintf("%s-%d", pfx, i)
			if counts[op] != 1 {
				t.Fatalf("acked op %q applied %d times on survivor", op, counts[op])
			}
		}
	}
}

// TestStragglerCatchesUpFromStableCheckpoint is the regression test for
// a backup stuck behind a stable checkpoint. The primary's link to p3
// drops everything for the first few sequences, so p3 never sees their
// pre-prepares and, since requests reach only the primary, arms no
// watchdog for them. Later traffic gets through but cannot execute
// above the gap, and once checkpoints garbage-collect the gap's
// instances nothing re-sends them. The checkpoint quorum that proves p3
// is behind must start a state transfer, so p3 catches up after the
// traffic stops.
func TestStragglerCatchesUpFromStableCheckpoint(t *testing.T) {
	c := newCluster(t, 1, Options{CheckpointEvery: 4}, netsim.Config{})
	primary, straggler := c.replicas[0], c.replicas[3]
	c.net.SetLink(primary.ID(), straggler.ID(), netsim.LinkConfig{DropRate: 1})
	const lost, total = 3, 10
	for i := 0; i < total; i++ {
		if i == lost {
			c.net.ClearLink(primary.ID(), straggler.ID())
		}
		if err := primary.Submit("cli", uint64(i+1), []byte(fmt.Sprintf("op-%d", i)), 3*time.Second); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if straggler.Executed() == primary.Executed() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("straggler executed %d, primary %d: never caught up once traffic stopped", straggler.Executed(), primary.Executed())
}
