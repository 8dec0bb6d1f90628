package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, ts *httptest.Server, body string, wait bool) (*http.Response, JobStatus) {
	t.Helper()
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, st
}

func TestHTTPSubmitAndGet(t *testing.T) {
	s := New(Options{Runners: 2, WorkersPerRunner: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, st := postJob(t, ts, `{"alg":"simple","d":3,"n":8}`, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST ?wait=1: status %d", resp.StatusCode)
	}
	if st.Status != StatusDone || st.Result == nil || !st.Result.Delivered || st.Result.Bound <= 0 {
		t.Fatalf("waited job: %+v", st)
	}

	// GET by ID returns the same terminal state.
	getResp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: status %d", getResp.StatusCode)
	}
	var got JobStatus
	if err := json.NewDecoder(getResp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != st.ID || got.Status != StatusDone || got.Result.KeySum != st.Result.KeySum {
		t.Errorf("GET job mismatch: %+v vs %+v", got, st)
	}

	// Async submit: 202 and a queryable ID.
	resp2, st2 := postJob(t, ts, `{"alg":"route","d":2,"n":8,"perm":"reversal"}`, false)
	if resp2.StatusCode != http.StatusAccepted && resp2.StatusCode != http.StatusOK {
		t.Fatalf("async POST: status %d", resp2.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st2.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		json.NewDecoder(r.Body).Decode(&cur)
		r.Body.Close()
		if cur.Status == StatusDone {
			if !cur.Result.Delivered {
				t.Errorf("route job undelivered: %+v", cur.Result)
			}
			break
		}
		if cur.Status == StatusFailed {
			t.Fatalf("route job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("route job still %s after deadline", cur.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"alg":"quicksort","d":2,"n":8}`, http.StatusBadRequest},
		{`{"alg":"simple","d":2,"n":8,"bogus":1}`, http.StatusBadRequest}, // unknown field
		{`not json`, http.StatusBadRequest},
		{`{"alg":"simple","d":2,"n":9,"b":3}`, http.StatusBadRequest}, // odd block count
	} {
		if resp, _ := postJob(t, ts, tc.body, false); resp.StatusCode != tc.want {
			t.Errorf("POST %q: status %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTP429OnFullQueue is the acceptance check for backpressure at
// the HTTP layer: a full admission queue answers 429, not a hang.
func TestHTTP429OnFullQueue(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1, QueueDepth: 1})
	gate := make(chan struct{})
	s.beforeRun = func(j *Job, slot *runnerSlot) { <-gate }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, st1 := postJob(t, ts, `{"alg":"simple","d":2,"n":8,"seed":1}`, false)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST: status %d", resp1.StatusCode)
	}
	j1, _ := s.Job(st1.ID)
	for j1.Snapshot().Status == StatusQueued {
		runtime.Gosched()
	}
	if resp2, _ := postJob(t, ts, `{"alg":"simple","d":2,"n":8,"seed":2}`, false); resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second POST: status %d", resp2.StatusCode)
	}
	resp3, _ := postJob(t, ts, `{"alg":"simple","d":2,"n":8,"seed":3}`, false)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue POST: status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(gate)
	s.Close()
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	postJob(t, ts, `{"alg":"simple","d":2,"n":8}`, true)
	postJob(t, ts, `{"alg":"simple","d":2,"n":8}`, true) // cache hit

	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mResp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mResp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.JobsSubmitted != 2 || m.Simulations != 1 || m.CacheHits != 1 || m.Runners != 1 {
		t.Errorf("metrics: %+v", m)
	}
	if m.QueueCap == 0 {
		t.Error("metrics missing queue capacity")
	}
}

// TestHTTPAdmissionCeilings: the resource ceilings are an admission
// check, so POST /v1/jobs rejects an oversized spec with a 400 and the
// ceiling's message, while Canonicalize alone accepts it (see
// TestCanonicalizeSkipsCeilings).
func TestHTTPAdmissionCeilings(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct{ name, body, want string }{
		{"side", `{"alg":"simple","d":2,"n":1000}`,
			"service: side n=1000 out of range [2,64]"},
		{"too big", `{"alg":"simple","d":6,"n":32}`,
			"service: n^d = 32^6 exceeds the 524288-processor ceiling"},
		{"clique too big", `{"alg":"cliqueroute","n":513}`,
			"service: clique size n=513 out of range [2,512]"},
		{"clique k", `{"alg":"cliqueroute","n":64,"k":513}`,
			"service: clique relation k=513 out of range [1,512]"},
		{"inject horizon", `{"alg":"traffic","d":2,"n":8,"inject":"window:2000000"}`,
			`service: inject "window:2000000" schedules arrivals out to step 2000000, over the 1048576-step horizon`},
		{"packet ceiling", `{"alg":"traffic","d":2,"n":8,"load":"k:131072"}`,
			`service: load "k:131072" injects up to 8388608 packets, over the 1048576 ceiling`},
		{"greedyroute side", `{"alg":"greedyroute","d":2,"n":128}`,
			"service: side n=128 out of range [2,64]"},
		{"oddeven work", `{"alg":"oddeven","d":3,"n":64}`,
			"service: n^d = 64^3 exceeds the 32768-processor ceiling of alg=oddeven"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: decoding error body: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || body.Error != tc.want {
			t.Errorf("%s: got %d %q, want 400 %q", tc.name, resp.StatusCode, body.Error, tc.want)
		}
	}
}

// TestHTTPBaselines: POST /v1/jobs runs the baselines through the same
// dispatch table as the paper's algorithms, their spec fields included.
func TestHTTPBaselines(t *testing.T) {
	s := New(Options{Runners: 1, WorkersPerRunner: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct{ body, alg string }{
		{`{"alg":"oddeven","d":2,"n":8}`, "oddeven"},
		{`{"alg":"shear","d":2,"n":8}`, "shearsort"},
		{`{"alg":"greedyroute","d":2,"n":8,"perm":"transpose","policy":"dimorder","classes":"zero"}`, "greedyroute"},
		{`{"alg":"simple","d":3,"n":8,"realLocalSort":true,"altEstimator":true}`, "SimpleSort"},
	} {
		resp, st := postJob(t, ts, tc.body, true)
		if resp.StatusCode != http.StatusOK || st.Status != StatusDone || st.Result == nil {
			t.Fatalf("%s: %d %+v", tc.body, resp.StatusCode, st)
		}
		if r := st.Result; r.Algorithm != tc.alg || !r.Delivered || r.TotalSteps == 0 || len(r.Phases) == 0 {
			t.Errorf("%s: implausible result %+v", tc.body, r)
		}
	}
}
