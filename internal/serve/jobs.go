package serve

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// JobEvent is one NDJSON line of a job's progress stream.
type JobEvent struct {
	Seq int `json:"seq"`
	// T is the event type: queued, coalesced, started, progress,
	// buslog, done, error.
	T string `json:"t"`
	// Msg is the human-readable payload (a bus-transaction line for
	// buslog, a level summary for progress, the error text for error).
	Msg string `json:"msg,omitempty"`
	// MS is milliseconds since the job was created.
	MS int64 `json:"ms"`
}

// jobRec is one request's progress record. Watchers stream its events
// as NDJSON from GET /v1/jobs/{id}; the record keeps every event, so a
// watcher attaching after completion replays the whole history.
type jobRec struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`

	born time.Time

	mu      sync.Mutex
	events  []JobEvent
	done    bool
	changed chan struct{} // closed and replaced on every append
}

// emit appends one event and wakes the watchers.
func (j *jobRec) emit(t, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return
	}
	j.events = append(j.events, JobEvent{
		Seq: len(j.events), T: t, Msg: msg,
		MS: time.Since(j.born).Milliseconds(),
	})
	close(j.changed)
	j.changed = make(chan struct{})
}

// emitf is emit with formatting.
func (j *jobRec) emitf(t, format string, args ...any) {
	j.emit(t, fmt.Sprintf(format, args...))
}

// finish appends the terminal event and marks the record done.
func (j *jobRec) finish(t, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return
	}
	j.events = append(j.events, JobEvent{
		Seq: len(j.events), T: t, Msg: msg,
		MS: time.Since(j.born).Milliseconds(),
	})
	j.done = true
	close(j.changed)
	j.changed = make(chan struct{})
}

// snapshot returns the events from seq `from` on, whether the job is
// finished, and a channel that closes on the next change — the
// poll-free watcher loop's three ingredients.
func (j *jobRec) snapshot(from int) ([]JobEvent, bool, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []JobEvent
	if from < len(j.events) {
		evs = j.events[from:]
	}
	return evs, j.done, j.changed
}

// jobStore holds recent job records, evicting the oldest finished
// records beyond cap.
type jobStore struct {
	mu sync.Mutex
	// prefix is random per store, so ids are unique across replicas:
	// the cluster router finds a job by asking each replica in turn,
	// and a bare counter would let one replica's second job answer
	// for another's.
	prefix string
	seq    int64
	byID   map[string]*jobRec
	order  []string // creation order, for eviction
	cap    int
}

func newJobStore(capacity int) *jobStore {
	return &jobStore{
		prefix: fmt.Sprintf("j%08x-", rand.Uint32()),
		byID:   make(map[string]*jobRec),
		cap:    capacity,
	}
}

// create registers a new record.
func (s *jobStore) create(kind string) *jobRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	j := &jobRec{
		ID:      fmt.Sprintf("%s%06d", s.prefix, s.seq),
		Kind:    kind,
		born:    time.Now(),
		changed: make(chan struct{}),
	}
	s.byID[j.ID] = j
	s.order = append(s.order, j.ID)
	// Evict oldest finished records beyond capacity; live records are
	// never evicted (a watcher may still be attached).
	for len(s.order) > s.cap {
		evicted := false
		for i, id := range s.order {
			old := s.byID[id]
			old.mu.Lock()
			done := old.done
			old.mu.Unlock()
			if done {
				delete(s.byID, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything live: let the store exceed cap briefly
		}
	}
	return j
}

// get looks a record up.
func (s *jobStore) get(id string) *jobRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// count reports stored records.
func (s *jobStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}
