package paxos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"prever/internal/netsim"
)

// ClientOptions tunes the failover client's retry behaviour.
type ClientOptions struct {
	TryTimeout   time.Duration // per-attempt Propose timeout (default 400ms)
	ElectTimeout time.Duration // per-attempt BecomeLeader timeout (default 800ms)
}

// The client's retry backoff starts at clientBackoff and doubles up to
// clientMaxBackoff.
const (
	clientBackoff    = 5 * time.Millisecond
	clientMaxBackoff = 160 * time.Millisecond
)

func (o *ClientOptions) withDefaults() {
	if o.TryTimeout <= 0 {
		o.TryTimeout = 400 * time.Millisecond
	}
	if o.ElectTimeout <= 0 {
		o.ElectTimeout = 800 * time.Millisecond
	}
}

// Client submits values to a Paxos cluster and survives leader crashes:
// it tracks the current leader, retries with exponential backoff, and
// triggers a fresh election on a surviving replica when the leader is
// dead or demoted. A retry after ErrSlotLost is always safe (the value
// was not committed); a retry after a timeout can commit the value twice
// in different slots, so callers needing exactly-once must deduplicate in
// the applied log (as PBFT does with client sequence numbers).
type Client struct {
	net  *netsim.Network
	opts ClientOptions

	mu       sync.Mutex
	replicas []*Replica
	leader   *Replica
}

// NewClient builds a failover client over the given replicas.
func NewClient(net *netsim.Network, replicas []*Replica, opts ClientOptions) (*Client, error) {
	if len(replicas) == 0 {
		return nil, errors.New("paxos: client needs at least one replica")
	}
	opts.withDefaults()
	return &Client{net: net, replicas: replicas, opts: opts}, nil
}

// Propose replicates value into the log, failing over across leader
// crashes, demotions, and lost slots until it commits or the budget
// elapses. It returns the slot the value was committed into.
func (c *Client) Propose(value []byte, budget time.Duration) (uint64, error) {
	deadline := time.Now().Add(budget)
	backoff := clientBackoff
	lastErr := errors.New("paxos: no live replica")
	for attempt := 0; ; attempt++ {
		if r := c.leaderFor(attempt); r != nil {
			try := c.opts.TryTimeout
			if rem := time.Until(deadline); rem < try {
				try = rem
			}
			if try > 0 {
				slot, err := r.Propose(value, try)
				if err == nil {
					return slot, nil
				}
				lastErr = err
				if !errors.Is(err, ErrSlotLost) {
					// Timeout or demotion: stop trusting this leader.
					c.mu.Lock()
					if c.leader == r {
						c.leader = nil
					}
					c.mu.Unlock()
				}
			}
		}
		if !time.Now().Before(deadline) {
			return 0, fmt.Errorf("paxos: client retries exhausted: %w", lastErr)
		}
		sleep := backoff
		if rem := time.Until(deadline); rem < sleep {
			sleep = rem
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
		backoff = min(2*backoff, clientMaxBackoff)
	}
}

// leaderFor returns a replica believed to lead, electing one if none
// does. Crashed replicas are skipped; election candidates rotate with the
// attempt number so a persistently failing candidate does not wedge the
// client.
func (c *Client) leaderFor(attempt int) *Replica {
	c.mu.Lock()
	if c.leader != nil && c.net.Alive(c.leader.ID()) && c.leader.IsLeader() {
		r := c.leader
		c.mu.Unlock()
		return r
	}
	c.leader = nil
	replicas := c.replicas
	c.mu.Unlock()

	var alive []*Replica
	var claimed *Replica
	for _, r := range replicas {
		if !c.net.Alive(r.ID()) {
			continue
		}
		if claimed == nil && r.IsLeader() {
			claimed = r
		}
		alive = append(alive, r)
	}
	if len(alive) == 0 {
		return nil
	}
	// Trust a standing leadership claim only on the first attempt: after a
	// failed attempt the claimant may be a stale leader that was
	// partitioned through an election and does not know it was deposed.
	// Forcing a fresh election breaks that loop — the winner's higher
	// ballot demotes the impostor.
	if claimed != nil && attempt == 0 {
		c.mu.Lock()
		c.leader = claimed
		c.mu.Unlock()
		return claimed
	}
	cand := alive[attempt%len(alive)]
	if err := cand.BecomeLeader(c.opts.ElectTimeout); err != nil {
		return nil
	}
	c.mu.Lock()
	c.leader = cand
	c.mu.Unlock()
	return cand
}
