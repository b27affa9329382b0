package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"
)

// conn is one keep-alive HTTP connection of the load generator. Its
// transport allows a single connection, so a generator with N conns
// never has more than N requests outstanding.
type conn struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON body into out. A non-2xx
// status is returned as an error carrying the status code.
func (c *conn) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{Status: resp.StatusCode, Body: string(bytes.TrimSpace(data))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

type httpError struct {
	Status int
	Body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.Status, e.Body) }

// genConfig shapes one open-loop run: requests are due at a fixed rate,
// whatever the server does, and each is timed from its due time.
type genConfig struct {
	Rate     float64       // requests per second
	Conns    int           // connections (and so the in-flight limit)
	Duration time.Duration // scheduling window
}

// lateAfter is how far past its due time a send may start before it
// counts as late: half an interval, but at least 2 ms, because
// time.Sleep alone overshoots by up to about 1 ms on a loaded 2-vCPU VM.
func (c genConfig) lateAfter() time.Duration {
	d := time.Duration(float64(time.Second) / c.Rate / 2)
	if d < 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	return d
}

// requests is how many requests the window schedules.
func (c genConfig) requests() int64 { return int64(math.Round(c.Rate * c.Duration.Seconds())) }

// genOp performs request i on c and reports its kind ("read"/"write").
// due is when the request was scheduled and start when its send began;
// it returns the error the request ended with, nil on success.
type genOp func(c *conn, i int64, due, start time.Time) (kind string, err error)

// genResult is the generator's account of one run.
type genResult struct {
	Sent    int64                      `json:"sent"`
	Failed  int64                      `json:"failed"`
	Lat     map[string][]time.Duration `json:"-"` // from due time, successes only
	Elapsed time.Duration              `json:"-"`
	// Late counts sends that started more than LateAfter past due, for
	// any reason; SelfLate counts those where the scheduler itself woke
	// late (the generator's own CPU or timer, not a busy connection).
	Late     int64 `json:"late"`
	SelfLate int64 `json:"self_late"`
	// AllBusy is the time every connection had a request outstanding:
	// while it lasts the generator cannot offer its rate.
	AllBusy    time.Duration `json:"-"`
	FirstError string        `json:"first_error,omitempty"`
	// StartLate is each send's start minus its due time; WakeLate is the
	// scheduler's wake-up lateness for sends it was on time for.
	StartLate []time.Duration `json:"-"`
	WakeLate  []time.Duration `json:"-"`
}

func (r *genResult) lateShare() float64     { return ratio(float64(r.Late), float64(r.Sent)) }
func (r *genResult) selfLateShare() float64 { return ratio(float64(r.SelfLate), float64(r.Sent)) }
func (r *genResult) allBusyShare() float64 {
	return ratio(r.AllBusy.Seconds(), r.Elapsed.Seconds())
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// busyTracker accumulates the time during which all connections are busy.
type busyTracker struct {
	mu      sync.Mutex
	conns   int
	busy    int
	since   time.Time
	allBusy time.Duration
}

func (b *busyTracker) acquire(now time.Time) {
	b.mu.Lock()
	b.busy++
	if b.busy == b.conns {
		b.since = now
	}
	b.mu.Unlock()
}

func (b *busyTracker) release(now time.Time) {
	b.mu.Lock()
	if b.busy == b.conns {
		b.allBusy += now.Sub(b.since)
	}
	b.busy--
	b.mu.Unlock()
}

type genJob struct {
	i   int64
	due time.Time
}

// runOpenLoop offers cfg.Rate requests per second over cfg.Conns
// connections for cfg.Duration, then waits for the outstanding ones.
func runOpenLoop(base string, cfg genConfig, op genOp) *genResult {
	res := &genResult{Lat: make(map[string][]time.Duration)}
	bt := &busyTracker{conns: cfg.Conns}
	jobs := make(chan genJob) // unbuffered: a send blocks while every connection is busy
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		c := newConn(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for j := range jobs {
				start := time.Now()
				bt.acquire(start)
				kind, err := op(c, j.i, j.due, start)
				end := time.Now()
				bt.release(end)
				mu.Lock()
				res.Sent++
				res.StartLate = append(res.StartLate, start.Sub(j.due))
				if start.Sub(j.due) > cfg.lateAfter() {
					res.Late++
				}
				if err != nil {
					res.Failed++
					if res.FirstError == "" {
						res.FirstError = err.Error()
					}
				} else {
					res.Lat[kind] = append(res.Lat[kind], end.Sub(j.due))
				}
				mu.Unlock()
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	t0 := time.Now()
	var selfLate int64
	var wake []time.Duration
	for i := int64(0); i < cfg.requests(); i++ {
		due := t0.Add(time.Duration(i) * interval)
		// Only a wake-up that was scheduled in time and still came late is
		// the generator's own fault; a send already behind was held up by
		// busy connections.
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			wake = append(wake, time.Since(due))
			if wake[len(wake)-1] > cfg.lateAfter() {
				selfLate++
			}
		}
		jobs <- genJob{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	res.Elapsed = time.Since(t0)
	res.SelfLate = selfLate
	res.WakeLate = wake
	res.AllBusy = bt.allBusy
	return res
}
