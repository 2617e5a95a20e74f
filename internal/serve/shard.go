package serve

import (
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"cachesync/internal/mcheck"
)

// Distributed-check hosting: the /v1/shard/* endpoints expose one
// mcheck.ShardSession per (session id, replica) to a fleet
// coordinator (internal/cluster), which drives the level-synchronized
// expand/absorb phases over HTTP. Sessions are in-memory state — they
// hold a slice of the visited set between calls — so they live in a
// small TTL-bounded store rather than the stateless job machinery the
// other endpoints use. Expansion and absorption occupy an admission
// slot per call: a replica serving shard phases shares its execution
// width with simulate/check/sweep traffic instead of bypassing the
// arbiter.

const (
	shardSessionTTL  = 2 * time.Minute
	maxShardSessions = 16
	// shardBodyLimit caps absorb bodies, whose candidate lists scale
	// with the frontier rather than the request — far past the 1 MB
	// general-purpose body cap.
	shardBodyLimit = 64 << 20
)

// shardSess is one hosted session plus its bookkeeping. The mutex
// serializes phase calls: a coordinator drives phases strictly in
// order, so contention only appears when a confused or duplicate
// coordinator shows up — and then the lock keeps the session coherent.
type shardSess struct {
	mu      sync.Mutex
	sess    *mcheck.ShardSession
	touched time.Time
}

// shardStore is the session table.
type shardStore struct {
	mu       sync.Mutex
	sessions map[string]*shardSess
}

func newShardStore() *shardStore {
	return &shardStore{sessions: make(map[string]*shardSess)}
}

// prune drops sessions idle past the TTL. Callers hold st.mu.
func (st *shardStore) prune(now time.Time) {
	for k, s := range st.sessions {
		if now.Sub(s.touched) > shardSessionTTL {
			delete(st.sessions, k)
		}
	}
}

func (st *shardStore) put(key string, s *mcheck.ShardSession) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	st.prune(now)
	if _, ok := st.sessions[key]; ok {
		return fmt.Errorf("shard session %q already open", key)
	}
	if len(st.sessions) >= maxShardSessions {
		return fmt.Errorf("shard session table full (%d sessions)", maxShardSessions)
	}
	st.sessions[key] = &shardSess{sess: s, touched: now}
	return nil
}

func (st *shardStore) get(key string) *shardSess {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := time.Now()
	st.prune(now)
	s := st.sessions[key]
	if s != nil {
		s.touched = now
	}
	return s
}

func (st *shardStore) drop(key string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.sessions, key)
}

func (st *shardStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// ShardOpenRequest is the /v1/shard/open body: the check
// configuration plus the session's coordinates.
type ShardOpenRequest struct {
	CheckRequest
	Session string `json:"session"`
	Self    int    `json:"self"`
	Total   int    `json:"total"`
	// Resume asks the session to restore itself from a checkpoint
	// under the server's ShardCheckpointRoot — the coordinator's
	// re-dispatch path after this session's previous replica died.
	Resume bool `json:"resume,omitempty"`
}

// ShardCallRequest is the body of the other /v1/shard/* calls: it
// addresses a phase call to an open session.
type ShardCallRequest struct {
	Session string            `json:"session"`
	Seq     int64             `json:"seq,omitempty"`
	Cands   []mcheck.WireCand `json:"cands,omitempty"`
	ID      uint64            `json:"id,omitempty"`
}

// shardOpenOptions decodes a /v1/shard/open request body into the
// request and its checker options; an error is the caller's fault.
func shardOpenOptions(r *http.Request) (ShardOpenRequest, mcheck.Options, error) {
	var req ShardOpenRequest
	if err := decodeBodyLimit(r, &req, shardBodyLimit); err != nil {
		return req, mcheck.Options{}, err
	}
	if req.Session == "" || len(req.Session) > 128 {
		return req, mcheck.Options{}, errors.New("bad session id")
	}
	opts, err := req.CheckRequest.Normalize().Options()
	return req, opts, err
}

func (s *Server) handleShardOpen(w http.ResponseWriter, r *http.Request) {
	req, opts, err := shardOpenOptions(r)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	opts.Workers = s.cfg.Workers
	// NewShardSession bounds the session count, so a body cannot size
	// the session's memory.
	sess, err := mcheck.NewShardSession(opts, req.Self, req.Total)
	if err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	if root := s.cfg.ShardCheckpointRoot; root != "" {
		dir := filepath.Join(root, sanitizeSession(req.Session))
		if err := sess.SetCheckpointDir(dir, req.Resume); err != nil {
			s.writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()}, false)
			return
		}
	}
	if err := s.shards.put(req.Session, sess); err != nil {
		s.met.rejected.Add(1)
		s.writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": err.Error()}, true)
		return
	}
	reply, err := sess.Open()
	if err != nil {
		s.shards.drop(req.Session)
		s.writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()}, false)
		return
	}
	s.met.shardOpens.Add(1)
	s.writeJSON(w, http.StatusOK, reply, false)
}

// shardPhase is the shared lookup + serialize + admission tail of the
// expand/absorb/trace handlers. gated marks the compute-heavy phases
// that must hold an execution slot.
func (s *Server) shardPhase(w http.ResponseWriter, r *http.Request, gated bool,
	call func(sess *mcheck.ShardSession, req *ShardCallRequest) (any, error)) {

	var req ShardCallRequest
	if err := decodeBodyLimit(r, &req, shardBodyLimit); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	ss := s.shards.get(req.Session)
	if ss == nil {
		s.writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown shard session"}, false)
		return
	}
	if gated {
		release, err := s.gate.acquire(r.Context())
		if err != nil {
			s.writeError(w, err)
			return
		}
		defer release()
	}
	ss.mu.Lock()
	reply, err := call(ss.sess, &req)
	ss.mu.Unlock()
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()}, false)
		return
	}
	s.writeJSON(w, http.StatusOK, reply, false)
}

func (s *Server) handleShardExpand(w http.ResponseWriter, r *http.Request) {
	s.shardPhase(w, r, true, func(sess *mcheck.ShardSession, req *ShardCallRequest) (any, error) {
		return sess.Expand()
	})
}

func (s *Server) handleShardAbsorb(w http.ResponseWriter, r *http.Request) {
	s.shardPhase(w, r, true, func(sess *mcheck.ShardSession, req *ShardCallRequest) (any, error) {
		return sess.Absorb(req.Seq, req.Cands)
	})
}

func (s *Server) handleShardTrace(w http.ResponseWriter, r *http.Request) {
	s.shardPhase(w, r, false, func(sess *mcheck.ShardSession, req *ShardCallRequest) (any, error) {
		return sess.TraceHop(req.ID)
	})
}

func (s *Server) handleShardClose(w http.ResponseWriter, r *http.Request) {
	var req ShardCallRequest
	if err := decodeBodyLimit(r, &req, 1<<20); err != nil {
		s.writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()}, false)
		return
	}
	if ss := s.shards.get(req.Session); ss != nil {
		ss.mu.Lock()
		ss.sess.DiscardCheckpoint()
		ss.mu.Unlock()
	}
	s.shards.drop(req.Session)
	s.writeJSON(w, http.StatusOK, map[string]any{"closed": true}, false)
}

// sanitizeSession flattens a coordinator session id ("check-3/1") into
// a single directory name: anything outside [A-Za-z0-9_-] becomes '_',
// so an id can never traverse out of the checkpoint root.
func sanitizeSession(id string) string {
	b := []byte(id)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}
