package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Batch submission defaults. Every engine's SubmitBatch is one of these
// three; the concurrent two share one lane abstraction: a batch is
// partitioned by lane key (by default the producer) and each key's
// subsequence runs in submission order, while distinct keys run in
// parallel.
//
//	             ┌ key a: u0 → u3 → u5 ┐
//	batch ── by ─┼ key b: u1 → u4      ┼── receipts in input order
//	  key        └ key c: u2           ┘
//
// Engines whose constraints group per producer (the FLSA family)
// therefore never see two in-flight updates race on one group's state.

// LaneKey is the default lane key for plaintext Updates: the producer
// (per-producer ordering, matching per-producer constraints), falling
// back to the row key for producer-less updates.
func LaneKey(u Update) string {
	if u.Producer != "" {
		return u.Producer
	}
	return u.Key
}

// SubmitSequential is the default batch implementation: one Submit at a
// time, receipts in input order. Engines whose verification is inherently
// serialized (EncryptedManager's comparison-oracle protocol) use it as
// their SubmitBatch.
func SubmitSequential[U any](submit func(U) (Receipt, error), us []U) ([]Receipt, error) {
	receipts := make([]Receipt, len(us))
	var firstErr error
	for i, u := range us {
		r, err := submit(u)
		receipts[i] = r
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return receipts, firstErr
}

// SubmitConcurrent runs each lane key's subsequence of a batch
// sequentially, distinct keys in parallel on at most GOMAXPROCS
// goroutines. Receipts are returned in input order;
// the error is the first operational error in input order (rejections
// are receipts, not errors — matching SubmitSequential). Engines with
// independently verifiable updates use it as their SubmitBatch.
func SubmitConcurrent[U any](submit func(U) (Receipt, error), laneOf func(U) string, us []U) ([]Receipt, error) {
	if len(us) < 2 {
		return SubmitSequential(submit, us)
	}
	receipts := make([]Receipt, len(us))
	errs := make([]error, len(us))
	runLanes(partition(laneOf, us), func(_ int, ids []int) {
		for _, i := range ids {
			receipts[i], errs[i] = submit(us[i])
		}
	})
	return receipts, firstErr(errs)
}

// SubmitGrouped partitions a batch by lane key and hands each key's
// subsequence — in submission order — to a group-batch function, so an
// engine with an amortized batch verifier (one folded check per lane)
// sees whole lanes at once instead of one update at a time. Groups run
// as in SubmitConcurrent and receipts are returned in input order. A
// group submitter reports one error for its whole group, so the error
// returned is that of the first failing group, groups ordered by their
// first update's position in the batch.
func SubmitGrouped[U any](submitGroup func([]U) ([]Receipt, error), laneOf func(U) string, us []U) ([]Receipt, error) {
	receipts := make([]Receipt, len(us))
	groups := partition(laneOf, us)
	errs := make([]error, len(groups))
	runLanes(groups, func(gi int, ids []int) {
		group := make([]U, len(ids))
		for j, i := range ids {
			group[j] = us[i]
		}
		rs, err := submitGroup(group)
		errs[gi] = err
		for j, i := range ids {
			if j < len(rs) {
				receipts[i] = rs[j]
			}
		}
	})
	return receipts, firstErr(errs)
}

// partition groups the indices of us by lane key, each group in input
// order and the groups ordered by first appearance.
func partition[U any](laneOf func(U) string, us []U) [][]int {
	idx := make(map[string]int)
	var groups [][]int
	for i, u := range us {
		k := laneOf(u)
		g, ok := idx[k]
		if !ok {
			g = len(groups)
			idx[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// runLanes calls run once per group on at most GOMAXPROCS goroutines
// and returns when every call has returned.
func runLanes(groups [][]int, run func(gi int, ids []int)) {
	width := min(runtime.GOMAXPROCS(0), len(groups))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			for gi := int(next.Add(1) - 1); gi < len(groups); gi = int(next.Add(1) - 1) {
				run(gi, groups[gi])
			}
		}()
	}
	wg.Wait()
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
