package serve

import (
	"fmt"
	"math/rand/v2"
	"strconv"
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

	mu     sync.Mutex
	events []JobEvent
	done   bool
	// changed is closed on the next append; snapshot makes it when a
	// watcher first waits, so a record nobody watches makes none.
	changed chan struct{}
}

// emit appends one event and wakes the watchers.
func (j *jobRec) emit(t, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return
	}
	j.record(t, msg)
}

// record appends one event and wakes the watchers. j.mu is held.
func (j *jobRec) record(t, msg string) {
	j.events = append(j.events, JobEvent{
		Seq: len(j.events), T: t, Msg: msg,
		MS: time.Since(j.born).Milliseconds(),
	})
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
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
	j.record(t, msg)
	j.done = true
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
	if j.changed == nil {
		j.changed = make(chan struct{})
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
	// order[head:] holds the stored records in creation order, for
	// eviction; the slots below head are free.
	order []*jobRec
	head  int
	cap   int
}

func newJobStore(capacity int) *jobStore {
	return &jobStore{
		prefix: fmt.Sprintf("j%08x-", rand.Uint32()),
		byID:   make(map[string]*jobRec),
		cap:    capacity,
	}
}

// create registers a new record, then evicts the oldest finished
// records beyond capacity. Live records are never evicted (a watcher
// may still be attached), so the store exceeds its cap only while
// every record older than the new one is live.
func (s *jobStore) create(kind string) *jobRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	var buf [32]byte
	id := append(buf[:0], s.prefix...)
	for n := s.seq; n < 100000; n *= 10 {
		id = append(id, '0') // the counter is zero-padded to six digits
	}
	j := &jobRec{
		ID:     string(strconv.AppendInt(id, s.seq, 10)),
		Kind:   kind,
		born:   time.Now(),
		events: make([]JobEvent, 0, 4), // queued, started, a progress line, done
	}
	s.byID[j.ID] = j
	s.order = append(s.order, j)
	for len(s.order)-s.head > s.cap && s.evictOldestFinished() {
	}
	return j
}

// evictOldestFinished drops the oldest finished record, reporting
// whether there was one. The live records older than it keep their
// order, shifted up into its slot, so an eviction costs one step per
// such record: O(1) while the oldest record is finished. The free
// slots below head are reclaimed once they are half the slice.
func (s *jobStore) evictOldestFinished() bool {
	recs := s.order[s.head:]
	for i, j := range recs {
		j.mu.Lock()
		done := j.done
		j.mu.Unlock()
		if !done {
			continue
		}
		delete(s.byID, j.ID)
		copy(recs[1:i+1], recs[:i])
		recs[0] = nil
		s.head++
		if s.head >= len(s.order)/2 {
			n := copy(s.order, s.order[s.head:])
			clear(s.order[n:])
			s.order, s.head = s.order[:n], 0
		}
		return true
	}
	return false
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
