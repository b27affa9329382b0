package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"prever/internal/chain"
	"prever/internal/conf"
)

// Server serves the wire API over a Sharded chain. It holds no state of
// its own beyond the start time — every answer is computed from the
// chain, so N servers over N chains need no coordination.
type Server struct {
	chain *chain.Sharded
	start time.Time
}

// NewServer wraps a sharded chain in the HTTP API.
func NewServer(c *chain.Sharded) *Server {
	return &Server{chain: c, start: time.Now()}
}

// Handler returns the route table. Method routing is strict: a GET on a
// POST route is 405 from the mux, an unknown path 404.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /submit", s.handleSubmit)
	mux.HandleFunc("POST /submit-batch", s.handleSubmitBatch)
	mux.HandleFunc("POST /submit-private", s.handleSubmitPrivate)
	mux.HandleFunc("GET /get", s.handleGet)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /health", s.handleHealth)
	mux.HandleFunc("GET /audit", s.handleAudit)
	mux.HandleFunc("GET /conf", s.handleConfGet)
	mux.HandleFunc("POST /conf", s.handleConfPost)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code, msg string) {
	writeJSON(w, statusOf(code), &WireError{Code: code, Message: msg})
}

// writeSubmitErr classifies a submission failure into its wire code and
// HTTP status.
func writeSubmitErr(w http.ResponseWriter, err error) {
	writeErr(w, codeOf(err), err.Error())
}

// decode reads a strict JSON body: unknown fields, trailing garbage and
// oversized bodies are validation errors. The size limit is generous —
// per-transaction bounds are enforced semantically (conf.MaxTxBytes →
// 413, counted on the transaction's canonical binary encoding, so a
// value's base64 inflation in the JSON body does not count against
// it), this one only stops a runaway request body.
func decode(w http.ResponseWriter, r *http.Request, v any, limit int64) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// singleBodyLimit bounds one-transaction request bodies: the encoded
// value (base64 inflates by 4/3) plus headroom for the envelope.
func singleBodyLimit() int64 {
	return int64(conf.MaxTxBytes())*2 + 64<<10
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decode(w, r, &req, singleBodyLimit()); err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	tx, err := req.Tx.ToChain()
	if err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	res := <-s.chain.SubmitAsync(tx)
	if res.Err != nil {
		writeSubmitErr(w, res.Err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{TxID: res.TxID})
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decode(w, r, &req, int64(MaxBatchTxs)*singleBodyLimit()); err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	txs := make([]chain.Tx, len(req.Txs))
	for i, wt := range req.Txs {
		tx, err := wt.ToChain()
		if err != nil { // unreachable after Validate, but belt and braces
			writeErr(w, CodeInvalid, fmt.Sprintf("tx %d: %v", i, err))
			return
		}
		txs[i] = tx
	}
	results := s.chain.SubmitBatch(txs)
	out := BatchResponse{Results: make([]BatchResult, len(results))}
	for i, res := range results {
		br := BatchResult{TxID: res.TxID}
		switch {
		case res.Err == nil:
		case errors.Is(res.Err, chain.ErrDuplicate):
			br.Duplicate = true
			br.Code = CodeDuplicate
			br.Error = res.Err.Error()
		default:
			br.Code = codeOf(res.Err)
			br.Error = res.Err.Error()
		}
		out.Results[i] = br
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSubmitPrivate(w http.ResponseWriter, r *http.Request) {
	var req PrivateSubmitRequest
	if err := decode(w, r, &req, singleBodyLimit()); err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	if err := req.Validate(); err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	res := <-s.chain.SubmitPrivate(req.Collection, req.Key, req.Value)
	if res.Err != nil {
		writeSubmitErr(w, res.Err)
		return
	}
	writeJSON(w, http.StatusOK, SubmitResponse{TxID: res.TxID})
}

// handleGet reads a key from its home shard's world state. The durable
// smoke test and kill-recover harness use it to assert every acked write
// is still readable after a crash-restart.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeErr(w, CodeInvalid, "missing key parameter")
		return
	}
	if len(key) > MaxKeyBytes {
		writeErr(w, CodeInvalid, fmt.Sprintf("key is %d bytes (limit %d)", len(key), MaxKeyBytes))
		return
	}
	peer := s.chain.ShardFor(key).Peers()[0]
	val, err := peer.Get(key)
	if err != nil {
		writeJSON(w, http.StatusOK, GetResponse{Key: key, Found: false})
		return
	}
	writeJSON(w, http.StatusOK, GetResponse{Key: key, Value: val, Found: true})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Shards:        make(map[string]chain.Stats),
	}
	for _, sh := range s.chain.Shards() {
		st := sh.Stats()
		resp.Shards[sh.Name] = st
		resp.Total.Merge(st)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok"}
	for _, sh := range s.chain.Shards() {
		resp.Shards = append(resp.Shards, sh.Name)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAudit(w http.ResponseWriter, _ *http.Request) {
	resp := AuditResponse{Clean: true, Converged: true}
	for _, sh := range s.chain.Shards() {
		audit := ShardAudit{Name: sh.Name, Clean: true, BadBlock: -1, Converged: true}
		var tip [32]byte
		for i, p := range sh.Peers() {
			blocks := p.Blocks()
			audit.Heights = append(audit.Heights, len(blocks))
			if bad, err := chain.VerifyBlocks(blocks); bad != -1 && audit.Clean {
				audit.Clean = false
				audit.BadBlock = bad
				audit.Error = err.Error()
			}
			var t [32]byte
			if len(blocks) > 0 {
				t = blocks[len(blocks)-1].Hash
			}
			if i == 0 {
				tip = t
			} else if t != tip || len(blocks) != audit.Heights[0] {
				audit.Converged = false
			}
		}
		resp.Clean = resp.Clean && audit.Clean
		resp.Converged = resp.Converged && audit.Converged
		resp.Shards = append(resp.Shards, audit)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleConfGet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ViewOf(conf.Snapshot()))
}

func (s *Server) handleConfPost(w http.ResponseWriter, r *http.Request) {
	var u ConfUpdate
	if err := decode(w, r, &u, 64<<10); err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	c, err := u.Apply()
	if err != nil {
		writeErr(w, CodeInvalid, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ViewOf(c))
}
