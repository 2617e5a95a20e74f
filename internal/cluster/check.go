package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"cachesync/internal/mcheck"
	"cachesync/internal/serve"
)

// Distributed model checking: a /v1/check body may carry a
// coordinator-only "shards" field. shards > 1 partitions the visited
// state space across the healthy fleet — each shard session lives on
// one replica, reached through the /v1/shard/* endpoints — and the
// coordinator drives mcheck.RunSharded over the HTTP peers. The merged
// Result is byte-identical (timing aside) to what one replica would
// produce for the same request, a property the differential test in
// this package asserts end to end.

// maxCheckShards bounds the fan-out of one distributed check; each
// shard occupies a session slot on its replica for the whole run.
const maxCheckShards = 16

// shardedCheckRequest is the coordinator's view of a /v1/check body:
// the replica request plus the shard count, which is never forwarded.
type shardedCheckRequest struct {
	serve.CheckRequest
	Shards int `json:"shards,omitempty"`
}

// checkSeq disambiguates concurrent distributed checks of the same
// configuration: session ids must be unique per replica.
var checkSeq atomic.Int64

// handleShardedCheck runs one check partitioned over the fleet. Shard
// i starts on the i-th healthy replica (mod fleet size); shard
// sessions are stateful, so they don't reroute per call like the
// stateless proxy path. When the fleet runs with a shared shard
// checkpoint root, a session whose replica dies mid-check is instead
// re-dispatched: the peer re-opens it with resume on a healthy
// replica, verifies the restored session is at the peer's absorb
// sequence, and retries the failed call (httpPeer.post).
func (c *Cluster) handleShardedCheck(w http.ResponseWriter, r *http.Request, cr serve.CheckRequest, shards int) {
	if shards > maxCheckShards {
		writeJSON(w, http.StatusBadRequest, map[string]any{
			"error": fmt.Sprintf("shards %d out of range [1,%d]", shards, maxCheckShards)})
		return
	}
	cr = cr.Normalize()
	opts, err := cr.Options()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		return
	}

	var reps []*replica
	for _, name := range c.order {
		if rep := c.replicas[name]; rep.healthy.Load() {
			reps = append(reps, rep)
		}
	}
	if len(reps) == 0 {
		c.met.unrouted.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": "no healthy replica"})
		return
	}

	base := fmt.Sprintf("check-%d", checkSeq.Add(1))
	peers := make([]mcheck.ShardPeer, shards)
	for i := range peers {
		rep := reps[i%len(reps)]
		peers[i] = &httpPeer{
			c: c, rep: rep, ctx: r.Context(),
			session: fmt.Sprintf("%s/%d", base, i),
			cr:      cr, self: i, total: shards,
		}
		c.met.route(rep.name)
	}
	c.met.checkShards.Add(int64(shards))
	defer func() {
		for _, p := range peers {
			_ = p.Close()
		}
	}()

	res, err := mcheck.RunSharded(opts, peers)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		writeJSON(w, http.StatusBadGateway, map[string]any{"error": err.Error()})
		return
	}
	body, err := json.Marshal(res)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, serve.CheckResponse{
		Pass: res.Counterexample == nil, Result: body,
	})
}

// httpPeer is one remote shard session: mcheck.ShardPeer spoken over
// the owning replica's /v1/shard/* endpoints. The owning replica can
// change mid-run: see post.
type httpPeer struct {
	c       *Cluster
	rep     *replica
	ctx     context.Context
	session string
	cr      serve.CheckRequest
	self    int
	total   int
	// seq is the last level this session absorbed, from its Absorb
	// replies. A failover re-open must come back at exactly this
	// sequence before a failed call is retried; RunSharded drives each
	// peer from one goroutine at a time, so no lock guards it.
	seq int64
}

func (p *httpPeer) Open() (*mcheck.ShardOpenReply, error) {
	var reply mcheck.ShardOpenReply
	err := p.post(p.ctx, "open", serve.ShardOpenRequest{
		CheckRequest: p.cr, Session: p.session, Self: p.self, Total: p.total,
	}, &reply)
	if err != nil {
		return nil, err
	}
	return &reply, nil
}

func (p *httpPeer) Expand() (*mcheck.ShardExpandReply, error) {
	var reply mcheck.ShardExpandReply
	if err := p.post(p.ctx, "expand", serve.ShardCallRequest{Session: p.session}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

func (p *httpPeer) Absorb(seq int64, cands []mcheck.WireCand) (*mcheck.ShardAbsorbReply, error) {
	var reply mcheck.ShardAbsorbReply
	if err := p.post(p.ctx, "absorb", serve.ShardCallRequest{Session: p.session, Seq: seq, Cands: cands}, &reply); err != nil {
		return nil, err
	}
	p.seq = reply.Seq
	return &reply, nil
}

func (p *httpPeer) TraceHop(id uint64) (*mcheck.ShardHopReply, error) {
	var reply mcheck.ShardHopReply
	if err := p.post(p.ctx, "trace", serve.ShardCallRequest{Session: p.session, ID: id}, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Close is best-effort and deliberately not bound to the request
// context: a canceled check should still free its replica sessions.
// Whatever slips through, the replica's session TTL reclaims.
func (p *httpPeer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return p.post(ctx, "close", serve.ShardCallRequest{Session: p.session}, &struct {
		Closed bool `json:"closed"`
	}{})
}

// post sends one phase call to the session's current replica and
// decodes the reply. A failure that means the session is gone — a
// transport error (replica died; it gets marked down) or a 404
// (replica restarted or pruned the session) — triggers one failover
// attempt: re-open the session with resume on a healthy replica,
// verify the restored session is at this peer's absorb sequence, and
// retry the call there. Everything else fails the distributed check.
// The initial open has no session to recover, and close is
// best-effort; neither fails over.
func (p *httpPeer) post(ctx context.Context, phase string, msg, into any) error {
	payload, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	err, lost := p.do(ctx, phase, payload, into)
	if err == nil || !lost || phase == "open" || phase == "close" || ctx.Err() != nil {
		return err
	}
	if ferr := p.failover(ctx); ferr != nil {
		return fmt.Errorf("%w (failover: %w)", err, ferr)
	}
	err, _ = p.do(ctx, phase, payload, into)
	return err
}

// do is one HTTP round trip to the current replica. The second return
// reports whether the session should be presumed lost.
func (p *httpPeer) do(ctx context.Context, phase string, payload []byte, into any) (error, bool) {
	url := "http://" + p.rep.address() + "/v1/shard/" + phase
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return err, false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.c.client.Do(req)
	if err != nil {
		if ctx.Err() == nil {
			p.c.markDown(p.rep)
		}
		return fmt.Errorf("shard %d on %s: %s: %w", p.self, p.rep.name, phase, err), true
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error == "" {
			e.Error = fmt.Sprintf("status %d", resp.StatusCode)
		}
		return fmt.Errorf("shard %d on %s: %s: %s", p.self, p.rep.name, phase, e.Error),
			resp.StatusCode == http.StatusNotFound
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		return fmt.Errorf("shard %d on %s: %s: %w", p.self, p.rep.name, phase, err), false
	}
	return nil, false
}

// failover re-homes the session: open it with resume on each healthy
// replica in turn until one restores it at exactly p.seq. At seq 0
// nothing has been absorbed yet, so a fresh seed (Resumed false, as on
// a fleet without a shared checkpoint root) reproduces the session
// state and is accepted too; past that, only a genuine checkpoint
// restore at the right sequence is.
func (p *httpPeer) failover(ctx context.Context) error {
	payload, err := json.Marshal(serve.ShardOpenRequest{
		CheckRequest: p.cr, Session: p.session,
		Self: p.self, Total: p.total, Resume: true,
	})
	if err != nil {
		return err
	}
	var lastErr error
	for _, name := range p.c.order {
		rep := p.c.replicas[name]
		if !rep.healthy.Load() {
			continue
		}
		prev := p.rep
		p.rep = rep
		var reply mcheck.ShardOpenReply
		if oerr, _ := p.do(ctx, "open", payload, &reply); oerr != nil {
			p.rep = prev
			lastErr = oerr
			continue
		}
		if reply.Seq != p.seq || (p.seq > 0 && !reply.Resumed) {
			p.rep = prev
			lastErr = fmt.Errorf("shard %d: %s reopened at seq %d (resumed=%v), want %d — no usable checkpoint",
				p.self, rep.name, reply.Seq, reply.Resumed, p.seq)
			continue
		}
		p.c.met.checkFailovers.Add(1)
		p.c.met.route(rep.name)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("shard %d: no healthy replica to fail over to", p.self)
	}
	return lastErr
}
