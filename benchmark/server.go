package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"prever/internal/api"
	"prever/internal/chain"
	"prever/internal/netsim"
)

// child is a prever-server process booted from the binary the benchmark
// built. Its CPU and memory are read from /proc, apart from the load
// generator's. internal/harness boots servers too, but it polls /health
// every 10 ms (too coarse for a set-up of a few milliseconds) and cannot
// set the child's GOMAXPROCS.
type child struct {
	Addr string
	cmd  *exec.Cmd
	done chan struct{}
	err  error
}

// startChild execs the server and returns once it printed its address;
// it does not wait for /health.
func startChild(bin string, gomaxprocs int, args ...string) (*child, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", gomaxprocs))
	cmd.Stderr = os.Stderr
	// The kernel kills the server if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, after, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addrCh <- strings.TrimSpace(after)
				break
			}
		}
		// Drain so the server never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stdout)
		c.err = cmd.Wait()
		close(c.done)
	}()
	tmr := time.NewTimer(30 * time.Second)
	defer tmr.Stop()
	select {
	case c.Addr = <-addrCh:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("server exited before printing its address: %v", c.err)
	case <-tmr.C:
		c.kill()
		return nil, errors.New("server did not print its address within 30s")
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// kill sends SIGKILL and waits for the process to be reaped.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// stop asks for a graceful exit and falls back to SIGKILL.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	tmr := time.NewTimer(10 * time.Second)
	defer tmr.Stop()
	select {
	case <-c.done:
	case <-tmr.C:
		c.kill()
	}
}

// waitHealthy polls GET /health until it answers 200.
func waitHealthy(addr string, timeout time.Duration) error {
	c := newConn(addr)
	defer c.close()
	deadline := time.Now().Add(timeout)
	for {
		var h api.HealthResponse
		err := c.do(http.MethodGet, "/health", nil, &h)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s: %v", addr, timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitAudit polls GET /audit until every peer's chain verifies and all
// peers agree. A chain that fails verification is an error at once.
func waitAudit(addr string, timeout time.Duration) (api.AuditResponse, error) {
	c := newConn(addr)
	defer c.close()
	deadline := time.Now().Add(timeout)
	for {
		var a api.AuditResponse
		err := c.do(http.MethodGet, "/audit", nil, &a)
		if err != nil {
			return a, fmt.Errorf("audit: %w", err)
		}
		for _, s := range a.Shards {
			if !s.Clean {
				return a, fmt.Errorf("audit: shard %s not clean at block %d: %s", s.Name, s.BadBlock, s.Error)
			}
		}
		if a.Clean && a.Converged {
			return a, nil
		}
		if time.Now().After(deadline) {
			return a, fmt.Errorf("audit: not converged after %s: %+v", timeout, a)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bootChild starts a server and measures its set-up: the wall time from
// exec to the first /health 200, and the CPU time the server spent to
// get there.
func bootChild(bin string, gomaxprocs int, args ...string) (c *child, wall, cpu time.Duration, err error) {
	t0 := time.Now()
	c, err = startChild(bin, gomaxprocs, args...)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := waitHealthy(c.Addr, 30*time.Second); err != nil {
		c.kill()
		return nil, 0, 0, err
	}
	wall = time.Since(t0)
	if cpu, err = procThreadsCPU(c.pid()); err != nil {
		c.kill()
		return nil, 0, 0, err
	}
	return c, wall, cpu, nil
}

// inproc is the serving stack booted inside the benchmark process
// (netsim + chain.NewShard + api.NewServer, the same wiring as
// cmd/prever-server), used by traced runs so spans around layer calls
// share one clock and one process.
type inproc struct {
	Addr    string
	net     *netsim.Network
	shard   *chain.Shard
	sharded *chain.Sharded
	hs      *http.Server
}

func startInproc(dataDir string) (*inproc, error) {
	simnet := netsim.New(netsim.Config{})
	shard, err := chain.NewShard(simnet, chain.ShardConfig{Name: "shard0", F: 1, Timeout: 10 * time.Second, DataDir: dataDir})
	if err != nil {
		simnet.Close()
		return nil, err
	}
	sharded, err := chain.NewSharded(shard)
	if err != nil {
		_ = shard.Close()
		simnet.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sharded.Close()
		simnet.Close()
		return nil, err
	}
	s := &inproc{Addr: "http://" + ln.Addr().String(), net: simnet, shard: shard, sharded: sharded}
	s.hs = &http.Server{Handler: api.NewServer(sharded).Handler()}
	go func() { _ = s.hs.Serve(ln) }()
	return s, nil
}

func (s *inproc) close() {
	_ = s.hs.Close()
	_ = s.sharded.Close()
	s.net.Close()
}
