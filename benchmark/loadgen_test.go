package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestBusyTrackerCountsOnlyAllBusyTime(t *testing.T) {
	b := &busyTracker{conns: 2}
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	b.acquire(at(0))  // one busy
	b.acquire(at(10)) // both busy from 10
	b.release(at(30)) // one busy again at 30
	b.acquire(at(50)) // both busy from 50
	b.release(at(55))
	b.release(at(60))
	if b.allBusy != 25*time.Millisecond {
		t.Errorf("all-busy time %v, want 25ms", b.allBusy)
	}
}

func TestLateAfter(t *testing.T) {
	if got := (genConfig{Rate: 600}).lateAfter(); got != 2*time.Millisecond {
		t.Errorf("600/s: %v", got)
	}
	if got := (genConfig{Rate: 25}).lateAfter(); got != 20*time.Millisecond {
		t.Errorf("25/s: %v", got)
	}
}

// A server slower than the schedule keeps every connection busy: sends
// start late, but the scheduler itself is on time, so the lateness is
// the server's and counted as all-busy time, not as self-lateness.
func TestOpenLoopLatenessAccounting(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
	}))
	defer slow.Close()
	res := runOpenLoop(slow.URL, genConfig{Rate: 100, Conns: 1, Duration: 300 * time.Millisecond},
		func(c *conn, i int64, due, start time.Time) (string, error) {
			return "write", c.do(http.MethodGet, "/", nil, nil)
		})
	if res.Sent != 30 || res.Failed != 0 {
		t.Fatalf("sent %d failed %d, want 30 and 0", res.Sent, res.Failed)
	}
	if res.lateShare() < 0.5 {
		t.Errorf("late share %.2f against a 3x slower server", res.lateShare())
	}
	if res.allBusyShare() < 0.8 {
		t.Errorf("all-busy share %.2f against a 3x slower server", res.allBusyShare())
	}
	if res.selfLateShare() > 0.2 {
		t.Errorf("self-late share %.2f: busy connections counted as generator lateness", res.selfLateShare())
	}
	lat := res.Lat["write"]
	if len(lat) != 30 || lat[len(lat)-1] < 500*time.Millisecond {
		t.Errorf("latency from due time should include the queue: last %v", lat[len(lat)-1])
	}

	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer fast.Close()
	res = runOpenLoop(fast.URL, genConfig{Rate: 100, Conns: 2, Duration: 300 * time.Millisecond},
		func(c *conn, i int64, due, start time.Time) (string, error) {
			return "read", c.do(http.MethodGet, "/", nil, nil)
		})
	if res.Sent != 30 || res.lateShare() > 0.2 || res.allBusyShare() > 0.2 {
		t.Errorf("idle server: sent %d late %.2f all-busy %.2f", res.Sent, res.lateShare(), res.allBusyShare())
	}
}
