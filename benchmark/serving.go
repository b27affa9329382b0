package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"prever/internal/api"
)

// servingSpec shapes a workload against the HTTP serving path.
type servingSpec struct {
	Durable    bool    // server runs with -data (WAL + snapshots)
	Rate       float64 // requests per second, open loop
	Conns      int
	Keys       int
	ValueBytes int
	TxPerReq   int     // 1: POST /submit; more: POST /submit-batch
	ReadShare  float64 // share of requests that are GET /get
	Zipf       bool    // Zipfian keys (YCSB); otherwise distinct uniform keys per request
	LoadPhase  bool    // write every key once before the window, untimed
	SetupBoots int     // boots timed for setup_s; the median is reported
}

func keyName(i int) string { return fmt.Sprintf("user%06d", i) }

// value is the deterministic payload of version ver of key k: the version
// and key in the first 12 bytes, so a read names the write it returns.
func value(k int, ver int64, size int) []byte {
	b := make([]byte, size)
	binary.BigEndian.PutUint64(b, uint64(ver))
	binary.BigEndian.PutUint32(b[8:], uint32(k))
	fill := byte(33 + (ver*31+int64(k))%90)
	for i := 12; i < size; i++ {
		b[i] = fill
	}
	return b
}

// zipfian draws ranks in [0, n) with the YCSB Zipfian distribution
// (theta 0.99, Gray et al.), then scatters ranks over keys with a seeded
// permutation so hot keys are not adjacent.
type zipfian struct {
	n                  int
	theta, alpha, zeta float64
	eta                float64
	perm               []int
}

func newZipfian(n int, rng *rand.Rand) *zipfian {
	const theta = 0.99
	z := &zipfian{n: n, theta: theta, alpha: 1 / (1 - theta), perm: rng.Perm(n)}
	for i := 1; i <= n; i++ {
		z.zeta += 1 / math.Pow(float64(i), theta)
	}
	zeta2 := 1 + 1/math.Pow(2, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zeta)
	return z
}

func (z *zipfian) next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zeta
	var r int
	switch {
	case uz < 1:
		r = 0
	case uz < 1+math.Pow(0.5, z.theta):
		r = 1
	default:
		r = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if r >= z.n {
		r = z.n - 1
	}
	return z.perm[r]
}

// servingOp is one scheduled request.
type servingOp struct {
	read bool
	keys []int
}

// makeOps derives the request schedule from the seed.
func makeOps(spec servingSpec, seed int64, n int) []servingOp {
	rng := rand.New(rand.NewSource(seed))
	var z *zipfian
	if spec.Zipf {
		z = newZipfian(spec.Keys, rng)
	}
	idx := make([]int, spec.Keys)
	for i := range idx {
		idx[i] = i
	}
	ops := make([]servingOp, n)
	for i := range ops {
		op := &ops[i]
		op.read = rng.Float64() < spec.ReadShare
		if z != nil {
			op.keys = []int{z.next(rng)}
			continue
		}
		// Distinct keys: a partial Fisher-Yates shuffle.
		op.keys = make([]int, spec.TxPerReq)
		for j := range op.keys {
			s := j + rng.Intn(spec.Keys-j)
			idx[j], idx[s] = idx[s], idx[j]
			op.keys[j] = idx[j]
		}
	}
	return ops
}

// writeRec is one write of a key as the client saw it.
type writeRec struct {
	ver        int64
	start, ack time.Time
	acked      bool
}

// history records every write per key, for the read-back check.
type history struct {
	mu   sync.Mutex
	keys [][]writeRec
}

func newHistory(keys int) *history { return &history{keys: make([][]writeRec, keys)} }

func (h *history) add(k int, rec writeRec) {
	h.mu.Lock()
	h.keys[k] = append(h.keys[k], rec)
	h.mu.Unlock()
}

// checkRead decides whether a final read of key k is allowed by its
// write history: the value must come from a write that no acked write
// definitely followed (one that started after it was acked). Writes
// whose outcome is unknown may or may not have landed; an acked write
// must not be lost.
func checkRead(recs []writeRec, k int, got []byte, found bool, size int) error {
	if len(recs) == 0 {
		if found {
			return fmt.Errorf("key %d: never written but reads %d bytes", k, len(got))
		}
		return nil
	}
	if !found {
		return fmt.Errorf("key %d: %d writes but reads not-found", k, len(recs))
	}
	if len(got) != size {
		return fmt.Errorf("key %d: value of %d bytes, want %d", k, len(got), size)
	}
	ver := int64(binary.BigEndian.Uint64(got))
	if !bytes.Equal(got, value(k, ver, size)) {
		return fmt.Errorf("key %d: value is not any write's payload", k)
	}
	for i, w := range recs {
		if w.ver != ver {
			continue
		}
		if !w.acked {
			return nil
		}
		for j, o := range recs {
			if j != i && o.acked && o.start.After(w.ack) {
				return fmt.Errorf("key %d: reads version %d, overwritten by acked version %d", k, ver, o.ver)
			}
		}
		return nil
	}
	return fmt.Errorf("key %d: reads version %d that was never written", k, ver)
}

func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode %T: %v", v, err)) // wire structs always marshal
	}
	return b
}

// servingPass is what one pass over the serving path measured.
type servingPass struct {
	Gen        *genResult
	Setup      []time.Duration // server CPU from exec to the first /health 200
	SetupWall  []time.Duration // wall time of the same
	Recover    []time.Duration
	CPU        time.Duration // server CPU over the window (process CPU in process)
	GenCPU     time.Duration // the benchmark process's CPU over the window
	Steal      float64       // hypervisor steal share over the window
	Completed  int64         // reads + committed writes in the window
	RSSMiB     []float64     // server VmRSS sampled over the window
	PeakRSSMiB float64       // server VmHWM at the end of the window
	Readback   []time.Duration
	Attempted  int64
	Failed     int64
	Problems   []string
	Stats      api.StatsResponse
	DataDir    string
	LoadPhase  time.Duration
	stack      *inproc // in-process pass: kept open for layer probes

	mu sync.Mutex // guards Completed and Failed while the generator runs
}

func (p *servingPass) problem(format string, args ...any) {
	if len(p.Problems) < 20 {
		p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
	}
}

// server is the pass's view of the system under test.
type server struct {
	addr string
	pid  int // 0: in process
}

// runServing runs one pass. With tr == nil it boots the real
// prever-server binary (bin) as a child; otherwise it boots the same
// stack in process and records spans around every request.
func runServing(spec servingSpec, seed int64, window time.Duration, bin, workDir string, gomaxprocs int, tr *Tracer) (_ *servingPass, err error) {
	p := &servingPass{}
	defer func() {
		if err != nil && p.stack != nil {
			p.stack.close()
		}
	}()
	if spec.Durable {
		p.DataDir = filepath.Join(workDir, "data")
	}
	var srv server
	var ch *child
	defer func() {
		if ch != nil {
			ch.kill()
		}
	}()
	if tr == nil {
		for i := 0; i < spec.SetupBoots; i++ {
			if ch != nil {
				ch.stop()
				ch = nil
			}
			args := []string{}
			if spec.Durable {
				p.DataDir = filepath.Join(workDir, fmt.Sprintf("data%d", i))
				args = append(args, "-data", p.DataDir)
			}
			c, wall, cpu, err := bootChild(bin, gomaxprocs, args...)
			if err != nil {
				return nil, err
			}
			ch = c
			p.Setup = append(p.Setup, cpu)
			p.SetupWall = append(p.SetupWall, wall)
		}
		srv = server{addr: ch.Addr, pid: ch.pid()}
	} else {
		t0 := time.Now()
		s, err := startInproc(p.DataDir)
		if err != nil {
			return nil, err
		}
		if err := waitHealthy(s.Addr, 30*time.Second); err != nil {
			s.close()
			return nil, err
		}
		p.SetupWall = append(p.SetupWall, time.Since(t0))
		p.stack = s
		srv = server{addr: s.Addr}
	}

	hist := newHistory(spec.Keys)
	if spec.LoadPhase {
		t0 := time.Now()
		if err := loadKeys(srv.addr, spec, hist); err != nil {
			return nil, err
		}
		p.LoadPhase = time.Since(t0)
	}

	gc := genConfig{Rate: spec.Rate, Conns: spec.Conns, Duration: window}
	ops := makeOps(spec, seed, int(gc.requests()))
	cpu0, gen0 := p.cpu(srv), selfCPU()
	tot0, st0 := cpuTimes()
	stopRSS := p.sampleRSS(srv.pid)
	p.Gen = runOpenLoop(srv.addr, gc,
		func(c *conn, i int64, due, start time.Time) (string, error) {
			root := tr.BeginAt("gen.request", 0, i, due)
			defer root.End()
			return p.do(c, spec, ops[i], i, start, hist, tr, root.ID())
		})
	stopRSS()
	p.CPU, p.GenCPU = p.cpu(srv)-cpu0, selfCPU()-gen0
	tot1, st1 := cpuTimes()
	p.Steal = stealShare(tot0, st0, tot1, st1)
	if srv.pid != 0 {
		rss, err := procPeakRSSMiB(srv.pid)
		if err != nil {
			return nil, err
		}
		p.PeakRSSMiB = rss
	}
	c := newConn(srv.addr)
	err = c.do(http.MethodGet, "/stats", nil, &p.Stats)
	c.close()
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}

	if spec.Durable && tr == nil {
		// The crash: SIGKILL, no shutdown path runs. Only what fsync made
		// durable survives.
		ch.kill()
		t0 := time.Now()
		c, err := startChild(bin, gomaxprocs, "-data", p.DataDir)
		if err != nil {
			ch = nil
			return nil, fmt.Errorf("restart after kill: %w", err)
		}
		ch = c
		if err := waitHealthy(ch.Addr, 60*time.Second); err != nil {
			return nil, err
		}
		if _, err := waitAudit(ch.Addr, 60*time.Second); err != nil {
			p.problem("after restart: %v", err)
		}
		p.Recover = append(p.Recover, time.Since(t0))
		srv = server{addr: ch.Addr, pid: ch.pid()}
	} else if _, err := waitAudit(srv.addr, 60*time.Second); err != nil {
		p.problem("%v", err)
	}
	p.readBack(srv.addr, spec, hist)

	if !spec.Durable && tr == nil {
		// An in-memory server has nothing to replay: recovery is a cold
		// restart to a clean, converged (empty) chain.
		for i := 0; i < spec.SetupBoots; i++ {
			ch.kill()
			t0 := time.Now()
			c, err := startChild(bin, gomaxprocs)
			if err != nil {
				ch = nil
				return nil, err
			}
			ch = c
			if err := waitHealthy(ch.Addr, 30*time.Second); err != nil {
				return nil, err
			}
			if _, err := waitAudit(ch.Addr, 30*time.Second); err != nil {
				return nil, err
			}
			p.Recover = append(p.Recover, time.Since(t0))
		}
	}
	if ch != nil {
		ch.stop()
		ch = nil
	}
	p.Attempted += p.Gen.Sent * int64(spec.TxPerReq)
	return p, nil
}

// sampleRSS reads the server's resident set every 250 ms until the
// returned stop function is called; stop returns once sampling ended.
// The median of the samples is steadier than the peak, which moves with
// where the last garbage collection fell.
func (p *servingPass) sampleRSS(pid int) (stop func()) {
	if pid == 0 {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if v, err := procRSSMiB(pid); err == nil {
					p.RSSMiB = append(p.RSSMiB, v)
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		if len(p.RSSMiB) == 0 { // a window shorter than one tick
			if v, err := procRSSMiB(pid); err == nil {
				p.RSSMiB = append(p.RSSMiB, v)
			}
		}
	}
}

func (p *servingPass) cpu(s server) time.Duration {
	if s.pid == 0 {
		return selfCPU()
	}
	d, err := procThreadsCPU(s.pid)
	if err != nil {
		p.problem("read server cpu: %v", err)
	}
	return d
}

// do performs one scheduled request on c.
func (p *servingPass) do(c *conn, spec servingSpec, op servingOp, i int64, start time.Time, hist *history, tr *Tracer, parent int64) (string, error) {
	if op.read {
		k := op.keys[0]
		sp := tr.Begin("api.get", parent, i)
		var resp api.GetResponse
		err := c.do(http.MethodGet, "/get?key="+url.QueryEscape(keyName(k)), nil, &resp)
		sp.End()
		if err != nil {
			p.countFail(1)
			return "read", err
		}
		p.countDone(1)
		return "read", nil
	}
	if spec.TxPerReq == 1 {
		k := op.keys[0]
		ver := i + 1
		body := encodeJSON(api.SubmitRequest{Tx: api.Tx{Kind: api.KindPut, Key: keyName(k), Value: value(k, ver, spec.ValueBytes)}})
		sp := tr.Begin("api.submit", parent, i)
		var resp api.SubmitResponse
		err := c.do(http.MethodPost, "/submit", body, &resp)
		sp.End()
		hist.add(k, writeRec{ver: ver, start: start, ack: time.Now(), acked: err == nil})
		if err != nil {
			p.countFail(1)
			return "write", err
		}
		p.countDone(1)
		return "write", nil
	}
	txs := make([]api.Tx, len(op.keys))
	vers := make([]int64, len(op.keys))
	for j, k := range op.keys {
		vers[j] = i*int64(spec.TxPerReq) + int64(j) + 1
		txs[j] = api.Tx{Kind: api.KindPut, Key: keyName(k), Value: value(k, vers[j], spec.ValueBytes)}
	}
	body := encodeJSON(api.BatchRequest{Txs: txs})
	sp := tr.Begin("api.submit_batch", parent, i)
	var resp api.BatchResponse
	err := c.do(http.MethodPost, "/submit-batch", body, &resp)
	sp.End()
	ack := time.Now()
	if err == nil && len(resp.Results) != len(txs) {
		err = fmt.Errorf("submit-batch: %d results for %d txs", len(resp.Results), len(txs))
	}
	failed := 0
	for j, k := range op.keys {
		ok := err == nil && resp.Results[j].Code == ""
		if !ok {
			failed++
		}
		hist.add(k, writeRec{ver: vers[j], start: start, ack: ack, acked: ok})
	}
	p.countFail(int64(failed))
	p.countDone(int64(len(txs) - failed))
	if err == nil && failed > 0 {
		err = fmt.Errorf("submit-batch: %d of %d txs failed (first: %s %s)", failed, len(txs), resp.Results[0].Code, resp.Results[0].Error)
	}
	return "write", err
}

func (p *servingPass) countDone(n int64) {
	p.mu.Lock()
	p.Completed += n
	p.mu.Unlock()
}

func (p *servingPass) countFail(n int64) {
	p.mu.Lock()
	p.Failed += n
	p.mu.Unlock()
}

// loadKeys is the YCSB load phase: every key gets version 0, in
// 64-transaction batches over the workload's connections.
func loadKeys(addr string, spec servingSpec, hist *history) error {
	const chunk = 64
	next := make(chan int, (spec.Keys+chunk-1)/chunk) // sized to the number of sends
	for k := 0; k < spec.Keys; k += chunk {
		next <- k
	}
	close(next)
	errs := make(chan error, spec.Conns)
	var wg sync.WaitGroup
	for w := 0; w < spec.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			for lo := range next {
				hi := lo + chunk
				if hi > spec.Keys {
					hi = spec.Keys
				}
				txs := make([]api.Tx, 0, hi-lo)
				for k := lo; k < hi; k++ {
					txs = append(txs, api.Tx{Kind: api.KindPut, Key: keyName(k), Value: value(k, 0, spec.ValueBytes)})
				}
				start := time.Now()
				var resp api.BatchResponse
				if err := c.do(http.MethodPost, "/submit-batch", encodeJSON(api.BatchRequest{Txs: txs}), &resp); err != nil {
					errs <- fmt.Errorf("load phase: %w", err)
					return
				}
				ack := time.Now()
				for j, r := range resp.Results {
					if r.Code != "" {
						errs <- fmt.Errorf("load phase: %s: %s", r.Code, r.Error)
						return
					}
					hist.add(lo+j, writeRec{ver: 0, start: start, ack: ack, acked: true})
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// readBack reads every key over the workload's connections and checks
// it against the write history.
func (p *servingPass) readBack(addr string, spec servingSpec, hist *history) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < spec.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn(addr)
			defer c.close()
			for k := w; k < spec.Keys; k += spec.Conns {
				t0 := time.Now()
				var resp api.GetResponse
				err := c.do(http.MethodGet, "/get?key="+url.QueryEscape(keyName(k)), nil, &resp)
				d := time.Since(t0)
				mu.Lock()
				p.Readback = append(p.Readback, d)
				if err == nil {
					err = checkRead(hist.keys[k], k, resp.Value, resp.Found, spec.ValueBytes)
				}
				if err != nil {
					p.problem("read-back: %v", err)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

// dirMiB is the total size of the regular files under dir.
func dirMiB(dir string) float64 {
	var total int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20)
}
