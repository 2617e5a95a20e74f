package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cachesync/internal/runner"
	"cachesync/internal/simrun"
)

// hitCase is one work request whose reply a cache hit must reproduce.
type hitCase struct {
	path, body string
	decoded    func() any // a pointer to the endpoint's response type
	// The allocation gate of a hit: the measured value plus a margin,
	// allocations and KB per request.
	maxAllocs, maxKB float64
}

var hitCases = []hitCase{
	// 40.1 allocations, 6.64 KB (43.0 and 6.85 KB when the runner
	// cache's single flight ran inside the daemon's; 85.5 and 11.45 KB
	// decoding the entry).
	{"/v1/simulate", `{"protocol":"bitar","ops":200,"seed":7}`, func() any { return new(SimulateResponse) }, 44, 7.3},
	// 38.1, 4.36 KB (41.1, 4.58 KB; 77.1, 6.83 KB).
	{"/v1/check", `{"protocol":"illinois","depth":4}`, func() any { return new(CheckResponse) }, 42, 4.8},
	// 50.0, 5.23 KB (53.1, 5.45 KB; 99.1, 8.67 KB).
	{"/v1/sweep", `{"protocols":["dragon"],"procs":[1,2],"ops":100,"seed":7}`, func() any { return new(SweepResponse) }, 54, 5.8},
	// A failing check, pass false with a counterexample: 41.1, 4.97 KB
	// (44.0, 5.19 KB; 80.1, 7.70 KB).
	{"/v1/check", `{"protocol":"illinois","inject":"drop-invalidate","depth":4}`, func() any { return new(CheckResponse) }, 45, 5.5},
}

// jobOf derives the runner job a daemon stores a request under.
func jobOf(t *testing.T, path, body string) runner.Job {
	t.Helper()
	var j runner.Job
	var err error
	switch path {
	case "/v1/simulate":
		var cfg simrun.Config
		err = json.Unmarshal([]byte(body), &cfg)
		j = runner.Job{Name: "simulate", ConfigHash: "simulate|" + cfg.Normalize().Hash()}
	case "/v1/check":
		var cr CheckRequest
		err = json.Unmarshal([]byte(body), &cr)
		j = runner.Job{Name: "check", ConfigHash: cr.Normalize().Hash()}
	default:
		var sr SweepRequest
		var cfgs []simrun.Config
		if err = json.Unmarshal([]byte(body), &sr); err == nil {
			cfgs, err = sr.Expand()
		}
		j = runner.Job{Name: "sweep", ConfigHash: SweepKey(cfgs)}
	}
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// postRaw posts a raw body and checks the reply's status and X-Cache.
func postRaw(t *testing.T, url, body, xcache string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != xcache {
		t.Fatalf("%s %s: status %d, X-Cache %q, want 200 and %q: %s",
			url, body, resp.StatusCode, resp.Header.Get("X-Cache"), xcache, out)
	}
	return out
}

// afterJob splits a work reply into its job id, which must be the
// first field, and the bytes after it.
func afterJob(t *testing.T, reply []byte) (string, []byte) {
	t.Helper()
	rest, ok := bytes.CutPrefix(reply, []byte(`{"job":"`))
	id, rest, found := bytes.Cut(rest, []byte(`"`))
	if !ok || !found || len(id) == 0 || !bytes.HasPrefix(rest, []byte(",")) {
		t.Fatalf("reply does not open with its job id: %s", reply)
	}
	return string(id), rest
}

// TestHitMatchesMiss: for each work endpoint, a cache hit answers what
// the miss that stored the entry answered. After the job id, which
// stays the first field, the hit's bytes are the miss's with
// ,"cached":true added after pass, and both decode to the same
// response apart from Job and Cached. The same holds for a hit served
// by a second daemon from an entry its cache fetched through
// /v1/artifact/{key} and stored with PutRaw.
func TestHitMatchesMiss(t *testing.T) {
	for _, tc := range hitCases {
		t.Run(strings.TrimPrefix(tc.path, "/v1/"), func(t *testing.T) {
			cacheA := openCache(t, filepath.Join(t.TempDir(), "a"))
			_, tsA := newTestServer(t, Config{Workers: 1, Cache: cacheA})
			miss := postRaw(t, tsA.URL+tc.path, tc.body, "miss")
			hit := postRaw(t, tsA.URL+tc.path, tc.body, "hit")

			j := jobOf(t, tc.path, tc.body)
			code, _, entry := getHeader(t, tsA.URL+"/v1/artifact/"+cacheA.KeyFor(j.Name, j.ConfigHash))
			if code != http.StatusOK {
				t.Fatalf("artifact fetch: %d %s", code, entry)
			}
			cacheB := openCache(t, filepath.Join(t.TempDir(), "b"))
			if _, ok := cacheB.PutRaw(cacheB.KeyFor(j.Name, j.ConfigHash), entry); !ok {
				t.Fatal("PutRaw refused the fetched entry")
			}
			_, tsB := newTestServer(t, Config{Workers: 1, Cache: cacheB})
			fleetHit := postRaw(t, tsB.URL+tc.path, tc.body, "hit")

			missID, missRest := afterJob(t, miss)
			pass, fields, ok := bytes.Cut(missRest[1:], []byte(","))
			if !ok || !bytes.HasPrefix(pass, []byte(`"pass":`)) {
				t.Fatalf("miss reply does not carry pass second: %s", miss)
			}
			want := []byte("," + string(pass) + `,"cached":true,` + string(fields))
			for name, reply := range map[string][]byte{"hit": hit, "fleet hit": fleetHit} {
				id, rest := afterJob(t, reply)
				if id == missID {
					t.Errorf("%s reused the miss's job id %s", name, id)
				}
				if !bytes.Equal(rest, want) {
					t.Errorf("%s after the job id:\n%s\nwant the miss's with cached added:\n%s", name, rest, want)
				}
				m, h := tc.decoded(), tc.decoded()
				if err := json.Unmarshal(miss, m); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(reply, h); err != nil {
					t.Fatal(err)
				}
				for _, v := range []reflect.Value{reflect.ValueOf(m).Elem(), reflect.ValueOf(h).Elem()} {
					v.FieldByName("Job").SetString("")
					v.FieldByName("Cached").SetBool(false)
				}
				if !reflect.DeepEqual(m, h) {
					t.Errorf("%s decodes to %+v, the miss to %+v", name, h, m)
				}
			}
		})
	}
}

// TestHitAllocs gates what a cache hit allocates in the daemon: each
// kind of work request is sent in process through Handler() as a hit,
// with the job store past its capacity, and the allocations of the
// httptest request and recorder, measured around a handler that does
// nothing, are subtracted. Decoding the stored entry, re-encoding the
// result, formatting the job id with fmt or a second single-flight
// group shows here.
func TestHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so counts vary")
	}
	cache := openCache(t, filepath.Join(t.TempDir(), "cache"))
	const maxJobs = 16
	s := New(Config{Workers: 1, Cache: cache, MaxJobs: maxJobs})
	t.Cleanup(s.Close)
	h := s.Handler()
	for _, tc := range hitCases {
		send := func(h http.Handler) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			return rec
		}
		for i := 0; i < 2*maxJobs; i++ {
			if rec := send(h); rec.Code != http.StatusOK || (i > 0 && rec.Header().Get("X-Cache") != "hit") {
				t.Fatalf("%s warm-up %d: status %d, X-Cache %q", tc.path, i, rec.Code, rec.Header().Get("X-Cache"))
			}
		}
		if n := s.jobs.count(); n != maxJobs {
			t.Fatalf("job store holds %d records, want its cap %d", n, maxJobs)
		}
		const n = 400
		harness := perRequest(n, func() { send(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})) })
		hit := perRequest(n, func() { send(h) })
		allocs, kb := hit[0]-harness[0], (hit[1]-harness[1])/1024
		t.Logf("%s hit: %.1f allocations, %.2f KB per request", tc.path, allocs, kb)
		if allocs > tc.maxAllocs || kb > tc.maxKB {
			t.Errorf("%s hit: %.1f allocations and %.2f KB per request, limits %.0f and %.1f KB",
				tc.path, allocs, kb, tc.maxAllocs, tc.maxKB)
		}
	}
}

// perRequest runs f n times and returns the mean allocations and bytes
// allocated per run.
func perRequest(n int, f func()) [2]float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return [2]float64{float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)}
}
