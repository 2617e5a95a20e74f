package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"cachesync/internal/simrun"
)

// TestJobStoreEvictsOldestFinished fills the store to its cap with the
// oldest record still live. Each further request evicts the oldest
// finished record and never the live one, so the store stays at its
// cap; /v1/jobs/{id} answers 404 for an evicted id and replays every
// event of a kept one. Records created while every older one is live
// let the store exceed its cap, and it shrinks back as they finish.
func TestJobStoreEvictsOldestFinished(t *testing.T) {
	const maxJobs = 4
	s, ts := newTestServer(t, Config{Workers: 1, MaxJobs: maxJobs})
	live := s.jobs.create("simulate") // a request that is still running
	post := func() string {
		t.Helper()
		code, _, body := postJSON(t, ts.URL+"/v1/simulate", simrun.Config{Protocol: "bitar", Ops: 40, Seed: 3})
		var resp SimulateResponse
		if err := json.Unmarshal(body, &resp); code != http.StatusOK || err != nil {
			t.Fatalf("simulate: %d %s", code, body)
		}
		return resp.Job
	}
	var ids []string
	for i := 0; i < maxJobs-1; i++ {
		ids = append(ids, post())
	}
	// Three rounds of eviction pass the store's compaction of its
	// free slots.
	for round := 0; round < 3*maxJobs; round++ {
		ids = append(ids, post())
		if n := s.jobs.count(); n != maxJobs {
			t.Fatalf("round %d: store holds %d records, want its cap %d", round, n, maxJobs)
		}
		if s.jobs.get(live.ID) != live {
			t.Fatalf("round %d: the live record was evicted", round)
		}
		evicted, kept := ids[round], ids[round+1:]
		if s.jobs.get(evicted) != nil {
			t.Fatalf("round %d: the oldest finished record %s was kept", round, evicted)
		}
		for _, id := range kept {
			if s.jobs.get(id) == nil {
				t.Fatalf("round %d: record %s was evicted before an older finished one", round, id)
			}
		}
	}

	evicted, kept := ids[0], ids[len(ids)-1]
	if code, _, _ := getHeader(t, ts.URL+"/v1/jobs/"+evicted); code != http.StatusNotFound {
		t.Fatalf("evicted job: status %d, want 404", code)
	}
	code, _, body := getHeader(t, ts.URL+"/v1/jobs/"+kept)
	if code != http.StatusOK {
		t.Fatalf("kept job: status %d", code)
	}
	var got []JobEvent
	for sc := bufio.NewScanner(bytes.NewReader(body)); sc.Scan(); {
		var e JobEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	want, done, _ := s.jobs.get(kept).snapshot(0)
	if !done || !reflect.DeepEqual(got, want) || want[len(want)-1].T != "done" {
		t.Fatalf("kept job replayed %+v, want every event %+v", got, want)
	}

	// Every record older than the new ones live: the store exceeds its
	// cap until they finish.
	var more []*jobRec
	for i := 0; i < maxJobs; i++ {
		more = append(more, s.jobs.create("simulate"))
	}
	for _, id := range ids[len(ids)-maxJobs+1:] {
		if s.jobs.get(id) != nil {
			t.Fatalf("finished record %s kept while the store was over its cap", id)
		}
	}
	if n := s.jobs.count(); n != maxJobs+1 {
		t.Fatalf("store holds %d records, want %d: the five live ones", n, maxJobs+1)
	}
	for _, j := range more {
		j.finish("done", "")
	}
	post()
	if n := s.jobs.count(); n != maxJobs || s.jobs.get(live.ID) != live || s.jobs.get(more[0].ID) != nil {
		t.Fatalf("after the new records finished: %d records, live kept %v, want %d and true",
			n, s.jobs.get(live.ID) != nil, maxJobs)
	}
}
