package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"prever/internal/commit"
	"prever/internal/constraint"
	"prever/internal/core"
	"prever/internal/group"
	"prever/internal/he"
	"prever/internal/ledger"
	"prever/internal/mpc"
)

// rc1Spec sizes the Research Challenge 1 workload: regulated updates on
// private data, verified by the proof-carrying (ZK) and the encrypted
// (Paillier + masked comparison) engines in this process.
type rc1Spec struct {
	Groups    int   // regulated groups (one running total each)
	PerGroup  int   // updates per group, >= 2
	MaxValue  int64 // update values are drawn from [1, MaxValue]
	Producers int   // concurrent proof producers
	HEBits    int   // Paillier modulus size
	SetupReps int   // set-ups timed; the median is reported
	MinRounds int   // verification rounds at least, even past the window
}

// bound keeps every honest group total within the regulation.
func (s rc1Spec) bound() int64 { return s.MaxValue * int64(s.PerGroup) }

// tampered is how many groups carry an invalid update in each engine.
func (s rc1Spec) tampered() int {
	n := s.Groups / 4
	if n < 1 {
		n = 1
	}
	return n
}

const rc1Manager = "rc1"

// rc1Update is one update in both engines' forms with its expected verdicts.
type rc1Update struct {
	Group    string
	Value    int64 // plaintext (ZK form)
	ZK       core.ZKUpdate
	ZKValid  bool
	Enc      core.EncryptedUpdate
	EncValid bool
}

// rc1System is one set-up: commitment parameters, the Paillier helper and
// both managers' constructors.
type rc1System struct {
	params *commit.Params
	helper *mpc.Helper
	spec   *core.BoundSpec
	bound  int64
	heBits int
}

func newRC1System(heBits int, bound int64) (*rc1System, error) {
	params := commit.NewParams(group.MODP2048())
	helper, err := mpc.NewHelper(heBits)
	if err != nil {
		return nil, err
	}
	src := fmt.Sprintf("SUM(tasks.hours WHERE tasks.worker = u.worker) + u.hours <= %d", bound)
	form, ok := constraint.CompileBound(constraint.MustParse(src))
	if !ok {
		return nil, fmt.Errorf("rc1: %q is not a linear bound", src)
	}
	spec, err := core.DeriveBoundSpec(rc1Manager, form)
	if err != nil {
		return nil, err
	}
	sys := &rc1System{params: params, helper: helper, spec: spec, bound: bound, heBits: heBits}
	// Construct both managers once so set-up covers their cost.
	if _, err := sys.zkManager(); err != nil {
		return nil, err
	}
	if _, err := sys.encManager(); err != nil {
		return nil, err
	}
	return sys, nil
}

func (s *rc1System) zkManager() (*core.ZKBoundManager, error) {
	return core.NewZKBoundManager(rc1Manager, s.params, s.bound)
}

func (s *rc1System) encManager() (*core.EncryptedManager, error) {
	return core.NewEncryptedManager(rc1Manager, s.helper.PublicKey(), s.helper, s.spec)
}

// rc1Result is what one pass measured.
type rc1Result struct {
	Setup     []time.Duration // process CPU per set-up
	SetupWall []time.Duration
	Prove     []time.Duration // wall time per proof-carrying update
	ProveCPU  time.Duration   // process CPU over all proof production
	Encrypt   []time.Duration // per encrypted input
	ZKCalls   []time.Duration // SubmitZKBatch wall time per round
	HECalls   []time.Duration // SubmitEncryptedBatch wall time per round
	ZKCPU     []time.Duration // process CPU per SubmitZKBatch round
	HECPU     []time.Duration // process CPU per SubmitEncryptedBatch round
	ZKUps     []float64       // updates decided per CPU-second of SubmitZKBatch
	HEUps     []float64       // updates decided per CPU-second of SubmitEncryptedBatch
	Reads     []time.Duration // verified ledger reads of accepted updates
	Restore   []time.Duration // ZK manager restore from snapshot
	CPU       time.Duration   // process CPU over the verification rounds
	Decided   int64           // updates decided over those rounds
	Attempted int64           // valid updates submitted
	Failed    int64           // valid updates rejected or errored
	Problems  []string
	ZKStats   core.Stats // of the last round's ZK manager
	Rounds    int
	Window    time.Duration

	sys     *rc1System
	updates []rc1Update
}

func (r *rc1Result) problem(format string, args ...any) {
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// runRC1 sets up the engines, produces the updates, then verifies them in
// rounds (fresh managers each round) until window has passed.
func runRC1(spec rc1Spec, seed int64, window time.Duration, tr *Tracer) (*rc1Result, error) {
	res := &rc1Result{}
	for i := 0; i < spec.SetupReps; i++ {
		sp := tr.Begin("core.setup", 0, 0)
		t0, c0 := time.Now(), selfCPU()
		sys, err := newRC1System(spec.HEBits, spec.bound())
		res.Setup = append(res.Setup, selfCPU()-c0)
		res.SetupWall = append(res.SetupWall, time.Since(t0))
		sp.End()
		if err != nil {
			return nil, err
		}
		res.sys = sys
	}
	if err := res.produce(spec, seed, tr); err != nil {
		return nil, err
	}
	res.verify(spec, window, tr)
	return res, nil
}

// produce builds every update: proofs by spec.Producers workers (one
// owner per group, so groups prove in parallel), then the encrypted
// inputs. A seeded set of groups gets an invalid last update in each
// engine: for ZK a proof bound to a different update ID, for HE a value
// that lifts the group total over the bound.
func (r *rc1Result) produce(spec rc1Spec, seed int64, tr *Tracer) error {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(spec.Groups)
	zkBad := map[int]bool{}
	heBad := map[int]bool{}
	for i := 0; i < spec.tampered(); i++ {
		zkBad[perm[i]] = true
		heBad[perm[len(perm)-1-i]] = true
	}
	r.updates = make([]rc1Update, spec.Groups*spec.PerGroup)
	for g := 0; g < spec.Groups; g++ {
		for k := 0; k < spec.PerGroup; k++ {
			u := &r.updates[g*spec.PerGroup+k]
			u.Group = fmt.Sprintf("g%02d", g)
			u.Value = 1 + rng.Int63n(spec.MaxValue)
			u.ZKValid, u.EncValid = true, true
			if k == spec.PerGroup-1 {
				u.ZKValid = !zkBad[g]
				u.EncValid = !heBad[g]
			}
		}
	}
	prove := make([]time.Duration, len(r.updates))
	groups := make(chan int, spec.Groups) // sized to the number of sends
	for g := 0; g < spec.Groups; g++ {
		groups <- g
	}
	close(groups)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	cpu0 := selfCPU()
	for w := 0; w < spec.Producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range groups {
				owner := core.NewZKOwner(r.sys.params, rc1Manager, r.sys.bound)
				for k := 0; k < spec.PerGroup; k++ {
					i := g*spec.PerGroup + k
					u := &r.updates[i]
					id := fmt.Sprintf("%s-u%02d", u.Group, k)
					sp := tr.Begin("core.produce_update", 0, int64(i))
					t0 := time.Now()
					zu, err := owner.ProduceUpdate(id, "producer-"+u.Group, u.Group, u.Value)
					prove[i] = time.Since(t0)
					sp.End()
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("rc1: produce %s: %w", id, err)
						}
						mu.Unlock()
						return
					}
					if !u.ZKValid {
						zu.ID = id + "-relabelled" // the proof stays bound to id
					}
					u.ZK = zu
				}
			}
		}()
	}
	wg.Wait()
	r.ProveCPU = selfCPU() - cpu0
	if firstErr != nil {
		return firstErr
	}
	r.Prove = prove
	pk := r.sys.helper.PublicKey()
	base := time.Date(2022, 3, 29, 0, 0, 0, 0, time.UTC)
	for i := range r.updates {
		u := &r.updates[i]
		v := u.Value
		if !u.EncValid {
			v = r.sys.bound // any earlier update makes the total exceed the bound
		}
		sp := tr.Begin("mpc.encrypt_input", 0, int64(i))
		t0 := time.Now()
		ct, err := mpc.EncryptInput(pk, v)
		r.Encrypt = append(r.Encrypt, time.Since(t0))
		sp.End()
		if err != nil {
			return fmt.Errorf("rc1: encrypt: %w", err)
		}
		u.Enc = core.EncryptedUpdate{
			ID: fmt.Sprintf("%s-e%d", u.Group, i), Producer: "producer-" + u.Group, Group: u.Group,
			TS: base.Add(time.Duration(i) * time.Minute), Enc: map[string]*he.Ciphertext{"hours": ct},
		}
	}
	return nil
}

// verify runs verification rounds against fresh managers and checks
// every verdict.
func (r *rc1Result) verify(spec rc1Spec, window time.Duration, tr *Tracer) {
	zus := make([]core.ZKUpdate, len(r.updates))
	eus := make([]core.EncryptedUpdate, len(r.updates))
	for i, u := range r.updates {
		zus[i] = u.ZK
		eus[i] = u.Enc
	}
	cpu0 := selfCPU()
	t0 := time.Now()
	for round := 0; round < spec.MinRounds || time.Since(t0) < window; round++ {
		zm, err := r.sys.zkManager()
		if err != nil {
			r.problem("zk manager: %v", err)
			return
		}
		sp := tr.Begin("core.submit_zk_batch", 0, int64(round))
		u0 := selfCPU()
		c0 := time.Now()
		zrs, zerr := zm.SubmitZKBatch(zus)
		dt := time.Since(c0)
		r.ZKCPU = append(r.ZKCPU, selfCPU()-u0)
		sp.End()
		r.ZKCalls = append(r.ZKCalls, dt)
		r.ZKUps = append(r.ZKUps, float64(len(zus))/r.ZKCPU[len(r.ZKCPU)-1].Seconds())
		r.judge("zk", zrs, zerr, func(i int) bool { return r.updates[i].ZKValid })

		em, err := r.sys.encManager()
		if err != nil {
			r.problem("encrypted manager: %v", err)
			return
		}
		sp = tr.Begin("core.submit_encrypted_batch", 0, int64(round))
		u0 = selfCPU()
		c0 = time.Now()
		ers, eerr := em.SubmitEncryptedBatch(eus)
		dt = time.Since(c0)
		r.HECPU = append(r.HECPU, selfCPU()-u0)
		sp.End()
		r.HECalls = append(r.HECalls, dt)
		r.HEUps = append(r.HEUps, float64(len(eus))/r.HECPU[len(r.HECPU)-1].Seconds())
		r.judge("he", ers, eerr, func(i int) bool { return r.updates[i].EncValid })
		r.Decided += int64(len(zus) + len(eus))

		r.readBack(zm, zrs, round, tr)
		r.restore(zm, round, tr)
		r.ZKStats = zm.Stats()
		r.Rounds++
	}
	r.Window = time.Since(t0)
	r.CPU = selfCPU() - cpu0
}

// judge checks one round's receipts against the expected verdicts.
func (r *rc1Result) judge(engine string, rs []core.Receipt, err error, valid func(int) bool) {
	if err != nil {
		r.problem("%s batch: %v", engine, err)
	}
	for i := range r.updates {
		ok := valid(i)
		if ok {
			r.Attempted++
		}
		if i >= len(rs) {
			if ok {
				r.Failed++
			}
			r.problem("%s: no receipt for update %d", engine, i)
			continue
		}
		switch {
		case ok && !rs[i].Accepted:
			r.Failed++
			r.problem("%s: valid update %s rejected: %s", engine, rs[i].UpdateID, rs[i].Reason)
		case !ok && rs[i].Accepted:
			r.problem("%s: invalid update %s accepted", engine, rs[i].UpdateID)
		}
	}
}

// readBack reads every accepted ZK update back from the manager's ledger
// with an inclusion proof checked against the current digest (a verified
// read), and checks it is there.
func (r *rc1Result) readBack(zm *core.ZKBoundManager, rs []core.Receipt, round int, tr *Tracer) {
	l := zm.Ledger()
	d := l.Digest()
	for i, rc := range rs {
		if !rc.Accepted {
			continue
		}
		u := r.updates[i].ZK
		sp := tr.Begin("ledger.verified_read", 0, int64(round))
		t0 := time.Now()
		v, gerr := l.Get("zk/" + u.Group + "/" + u.ID)
		p, perr := l.ProveInclusion(rc.LedgerSeq, d.Size)
		if perr == nil {
			perr = ledger.VerifyInclusion(p, d)
		}
		r.Reads = append(r.Reads, time.Since(t0))
		sp.End()
		if gerr != nil || len(v) == 0 || perr != nil {
			r.problem("ledger read of %s: get %v, proof %v", u.ID, gerr, perr)
		}
	}
}

// restore recovers a fresh ZK manager from the round's snapshot and
// checks that every group's running commitment survived.
func (r *rc1Result) restore(zm *core.ZKBoundManager, round int, tr *Tracer) {
	snap, err := zm.Snapshot()
	if err != nil {
		r.problem("zk snapshot: %v", err)
		return
	}
	sp := tr.Begin("core.restore", 0, int64(round))
	t0 := time.Now()
	fresh, err := r.sys.zkManager()
	if err == nil {
		err = fresh.Restore(snap)
	}
	r.Restore = append(r.Restore, time.Since(t0))
	sp.End()
	if err != nil {
		r.problem("zk restore: %v", err)
		return
	}
	seen := map[string]bool{}
	for _, u := range r.updates {
		if !seen[u.Group] {
			seen[u.Group] = true
			if !fresh.Running(u.Group).Equal(zm.Running(u.Group)) {
				r.problem("zk restore: group %s running commitment differs", u.Group)
			}
		}
	}
}
