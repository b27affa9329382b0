package pbft

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"prever/internal/codec"
)

// Batched submission: the mempool's Batcher packs many operations into a
// single PBFT request, so one three-phase instance orders the whole
// batch. EncodeBatch/DecodeBatch are the framing the apply callback uses
// to fan a request back out into its operations. The batch rides the
// normal client path — one client sequence number per batch — so the
// cluster's executed-request dedup gives the entire batch exactly-once
// semantics across retries.

// batchMagic prefixes encoded batches so appliers can tell a batch
// request from a bare single-op request.
var batchMagic = []byte("pbB2")

// EncodeBatch frames ops as one submittable operation: the magic, then
// the op count and each op length-prefixed in the codec framing.
func EncodeBatch(ops [][]byte) []byte {
	size := len(batchMagic) + binary.MaxVarintLen64
	for _, op := range ops {
		size += binary.MaxVarintLen64 + len(op)
	}
	w := codec.NewWriter(size)
	for _, b := range batchMagic {
		w.Byte(b)
	}
	codec.WriteList(w, ops, func(op *[]byte, w *codec.Writer) { w.Blob(*op) })
	return w.Bytes()
}

// DecodeBatch unframes a batch operation. ok is false when v is not a
// well-formed batch, in which case the applier should treat v as a
// single operation. The ops alias v.
func DecodeBatch(v []byte) ([][]byte, bool) {
	if !bytes.HasPrefix(v, batchMagic) {
		return nil, false
	}
	rd := codec.NewReader(v[len(batchMagic):])
	ops := codec.ReadList(rd, 1, func(op *[]byte, rd *codec.Reader) { *op = rd.Blob() })
	if rd.Done() != nil {
		return nil, false
	}
	return ops, true
}

// Pending is an in-flight client submission started by Start: the fast
// path has already handed the request to a replica; Wait falls back to
// the full failover retry loop — with the SAME client sequence number, so
// dedup holds — if that first attempt stalls.
type Pending struct {
	c    *Client
	seq  uint64
	op   []byte
	done <-chan struct{} // eager attempt's execution signal (nil if none)
}

// Start begins submitting op and returns immediately. The request is
// handed eagerly to the preferred replica (the live primary when there is
// one), which sequences it on arrival: two Starts issued in order on a
// stable primary are pre-prepared in that order, which is what lets a
// batcher pipeline submissions without reordering them.
func (c *Client) Start(op []byte) *Pending {
	p := &Pending{c: c, seq: c.seq.Add(1), op: op}
	if r := c.pick(0); r != nil {
		p.done = r.SubmitAsync(c.name, p.seq, op)
	}
	return p
}

// Wait blocks until the submission executes or the budget elapses,
// retrying across view changes and primary crashes like Submit. Retries
// reuse the Pending's sequence number, so the operation executes exactly
// once no matter how many attempts it takes.
func (p *Pending) Wait(budget time.Duration) error {
	deadline := time.Now().Add(budget)
	if p.done != nil {
		try := p.c.opts.TryTimeout
		if rem := time.Until(deadline); rem < try {
			try = rem
		}
		if try > 0 {
			tmr := time.NewTimer(try)
			select {
			case <-p.done:
				tmr.Stop()
				return nil
			case <-tmr.C:
			}
		}
		p.done = nil
	}
	rem := time.Until(deadline)
	if rem <= 0 {
		return fmt.Errorf("pbft: pending submission budget exhausted")
	}
	return p.c.submit(p.seq, p.op, rem)
}

// StartBatch begins submitting ops as one batched request (see Start).
func (c *Client) StartBatch(ops [][]byte) *Pending {
	return c.Start(EncodeBatch(ops))
}

// SubmitBatch orders ops as one batched request under a single client
// sequence number, with the same failover behaviour as Submit.
func (c *Client) SubmitBatch(ops [][]byte, budget time.Duration) error {
	return c.Submit(EncodeBatch(ops), budget)
}
