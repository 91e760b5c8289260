package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/testutil"
	"repro/internal/zero"
)

// specJSON is a tiny synthetic-data training job: 2 ranks, stage 2, one
// accumulation step per boundary pair — fast enough to run to completion
// inside unit tests.
func specJSON(steps int, seed int64) string {
	return fmt.Sprintf(`{
		"steps": %d,
		"config": {
			"model": {"layers": 1, "hidden": 16, "heads": 2, "vocab": 19, "seq": 8},
			"ranks": 2,
			"stage": 2,
			"optimizer": {"type": "adam", "lr": 3e-3},
			"global_batch": 8,
			"micro_batch": 4,
			"grad_accum_steps": 2,
			"seed": %d
		}
	}`, steps, seed)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	})
	return srv, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) Status {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, blob)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("submit: Location = %q", loc)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches a state accepted by ok.
func waitState(t *testing.T, ts *httptest.Server, id string, ok func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if ok(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s: timed out waiting; last state %+v", id, getStatus(t, ts, id))
	return Status{}
}

func streamRecords(t *testing.T, ts *httptest.Server, id string) []Record {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("metrics Content-Type = %q, want application/x-ndjson", ct)
	}
	var recs []Record
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// The tentpole end-to-end path: submit → stream live metrics to EOF →
// fetch the checkpoint → restore it into a fresh engine world.
func TestServeSubmitStreamCheckpoint(t *testing.T) {
	const steps = 5
	_, ts := newTestServer(t, Config{MaxWorlds: 1})
	st := submit(t, ts, specJSON(steps, 7))
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job state = %s", st.State)
	}

	// The metrics stream follows the live job and EOFs when it finishes.
	recs := streamRecords(t, ts, st.ID)
	if len(recs) != steps {
		t.Fatalf("streamed %d records, want %d", len(recs), steps)
	}
	for i, r := range recs {
		if r.Step != i+1 {
			t.Errorf("record %d: step %d, want %d (monotonic per-step stream)", i, r.Step, i+1)
		}
		if r.Loss == 0 || r.WireBytes == 0 || len(r.PerStream) == 0 {
			t.Errorf("record %d missing payload: %+v", i, r)
		}
		if i > 0 && r.WireBytes < recs[i-1].WireBytes {
			t.Errorf("record %d: cumulative WireBytes went backwards", i)
		}
	}

	final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateSucceeded || final.StepsDone != steps || !final.Checkpoint {
		t.Fatalf("final status = %+v, want succeeded with checkpoint after %d steps", final, steps)
	}

	// ?from= replays from an explicit cursor.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/metrics?from=3")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if n := strings.Count(string(blob), "\n"); n != steps-3 {
		t.Errorf("metrics?from=3 returned %d records, want %d", n, steps-3)
	}

	// Checkpoint round-trip: the served blob decodes and loads into a
	// fresh world built from the same config.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: status %d, body %s", resp.StatusCode, blob)
	}
	if got := resp.Header.Get("X-Zeroserve-Job-State"); got != string(StateSucceeded) {
		t.Errorf("X-Zeroserve-Job-State = %q", got)
	}
	snap, err := zero.DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("served checkpoint does not decode: %v", err)
	}
	if snap.OptSteps != steps {
		t.Errorf("checkpoint OptSteps = %d, want %d", snap.OptSteps, steps)
	}
	spec, err := parseSpec([]byte(specJSON(steps, 7)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Run(cfg, func(e *engine.Engine) {
		if err := e.Load(snap); err != nil {
			t.Errorf("rank %d: restoring served checkpoint: %v", e.Rank(), err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Two concurrent jobs run in fully isolated worlds: cancelling one
// mid-run does not move the other's loss trajectory by a single bit
// relative to a solo run of the same spec.
func TestServeConcurrentJobIsolation(t *testing.T) {
	const steps = 12
	soloLosses := func() []float64 {
		_, ts := newTestServer(t, Config{MaxWorlds: 1})
		st := submit(t, ts, specJSON(steps, 41))
		waitState(t, ts, st.ID, func(s Status) bool { return s.State == StateSucceeded })
		recs := streamRecords(t, ts, st.ID)
		losses := make([]float64, len(recs))
		for i, r := range recs {
			losses[i] = r.Loss
		}
		return losses
	}()

	_, ts := newTestServer(t, Config{MaxWorlds: 2})
	victim := submit(t, ts, specJSON(2000, 99)) // long-running cancel target
	probe := submit(t, ts, specJSON(steps, 41)) // same spec as the solo run

	// Cancel the victim once it is demonstrably mid-run.
	waitState(t, ts, victim.ID, func(s Status) bool { return s.StepsDone >= 2 })
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	vf := waitState(t, ts, victim.ID, func(s Status) bool { return s.State.Terminal() })
	if vf.State != StateCancelled {
		t.Fatalf("victim state = %s, want cancelled", vf.State)
	}
	if !vf.Checkpoint || vf.StepsDone >= 2000 {
		t.Errorf("victim should have checkpoint-and-stopped mid-run: %+v", vf)
	}
	// The cancelled job's checkpoint reflects its stopping boundary.
	cresp, err := http.Get(ts.URL + "/v1/jobs/" + victim.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	snap, err := zero.DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("cancelled job checkpoint does not decode: %v", err)
	}
	if snap.OptSteps != vf.StepsDone {
		t.Errorf("victim checkpoint OptSteps = %d, want %d", snap.OptSteps, vf.StepsDone)
	}

	pf := waitState(t, ts, probe.ID, func(s Status) bool { return s.State.Terminal() })
	if pf.State != StateSucceeded {
		t.Fatalf("probe state = %s (%s), want succeeded", pf.State, pf.Error)
	}
	recs := streamRecords(t, ts, probe.ID)
	if len(recs) != len(soloLosses) {
		t.Fatalf("probe streamed %d records, solo %d", len(recs), len(soloLosses))
	}
	for i, r := range recs {
		if r.Loss != soloLosses[i] {
			t.Errorf("step %d: concurrent loss %.17g != solo %.17g (world isolation broken)",
				r.Step, r.Loss, soloLosses[i])
		}
	}
}

// Saturation: with one world and a deep backlog the scheduler runs
// everything FIFO, and a full queue bounces with ErrQueueFull (429).
func TestServeSaturationFIFO(t *testing.T) {
	const backlog = 4
	_, ts := newTestServer(t, Config{MaxWorlds: 1, QueueDepth: backlog})
	// A long-running blocker occupies the single world; once it is
	// demonstrably running, `backlog` short jobs fill the queue and one
	// more must bounce.
	blocker := submit(t, ts, specJSON(2000, 9)).ID
	waitState(t, ts, blocker, func(s Status) bool { return s.State == StateRunning })
	ids := []string{blocker}
	for i := 0; i < backlog; i++ {
		ids = append(ids, submit(t, ts, specJSON(3, int64(10+i))).ID)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(specJSON(3, 99)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-capacity submit: status %d, want 429", resp.StatusCode)
	}

	// Release the world: cancel the blocker, let the backlog drain.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	for i, id := range ids {
		st := waitState(t, ts, id, func(s Status) bool { return s.State.Terminal() })
		want := StateSucceeded
		if i == 0 {
			want = StateCancelled
		}
		if st.State != want {
			t.Fatalf("job %s: state %s (%s), want %s", id, st.State, st.Error, want)
		}
	}
	// FIFO: with one world, start times follow submission order.
	var prev time.Time
	for _, id := range ids {
		st := getStatus(t, ts, id)
		if st.StartedAt.Before(prev) {
			t.Errorf("job %s started %v before its predecessor %v (FIFO violated)", id, st.StartedAt, prev)
		}
		prev = st.StartedAt
	}
}

// Invalid submissions map to 400 with the engine's sentinel text; bad
// routes and states map to 404/409.
func TestServeValidationAndErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorlds: 1})
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(blob)
	}

	// A valid spec padded past the cap is 413 naming the cap, not a 400
	// syntax error from a body cut at maxSpecBytes.
	overCap := specJSON(3, 1)
	overCap += strings.Repeat(" ", maxSpecBytes+1-len(overCap))
	cases := []struct {
		name, body, wantErr string
		code                int
	}{
		{"malformed json", `{"steps": `, "invalid job spec", http.StatusBadRequest},
		{"unknown field", `{"steps": 1, "bogus": 2, "config": {}}`, "invalid job spec", http.StatusBadRequest},
		{"empty config", `{"steps": 1, "config": {}}`, "invalid world", http.StatusBadRequest},
		{"negative steps", strings.Replace(specJSON(3, 1), `"steps": 3`, `"steps": -1`, 1), "invalid job spec", http.StatusBadRequest},
		{"over step cap", strings.Replace(specJSON(3, 1), `"steps": 3`, `"steps": 1000000`, 1), "invalid job spec", http.StatusBadRequest},
		{"relative data path", strings.Replace(specJSON(3, 1), `"seed": 1`,
			`"seed": 1, "data": {"path": "corpus.txt", "tokenizer": "byte", "seq_len": 8}`, 1), "relative", http.StatusBadRequest},
		{"over size cap", overCap, fmt.Sprintf("over the %d-byte cap", maxSpecBytes), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		code, body := post(tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d (body %.200s)", tc.name, code, tc.code, body)
		}
		if !strings.Contains(body, tc.wantErr) {
			t.Errorf("%s: body %.200q does not mention %q", tc.name, body, tc.wantErr)
		}
	}

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/metrics", "/v1/jobs/nope/checkpoint"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Checkpoint before terminal is a 409; cancelling a terminal job too.
	// The one world is held by a long blocker, so the probed job is queued
	// behind it for as long as the test needs it to be.
	code := func(method, path string) int {
		req, _ := http.NewRequest(method, ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	blocker := submit(t, ts, specJSON(2000, 4))
	st := submit(t, ts, specJSON(3, 5))
	if st.State != StateQueued {
		t.Fatalf("job behind a blocker on the one world: state %s, want queued", st.State)
	}
	for _, id := range []string{blocker.ID, st.ID} {
		if got := code(http.MethodGet, "/v1/jobs/"+id+"/checkpoint"); got != http.StatusConflict {
			t.Errorf("checkpoint while %s: status %d, want 409", getStatus(t, ts, id).State, got)
		}
	}
	for _, id := range []string{st.ID, blocker.ID} {
		if got := code(http.MethodDelete, "/v1/jobs/"+id); got != http.StatusAccepted {
			t.Errorf("cancel %s job: status %d, want 202", getStatus(t, ts, id).State, got)
		}
		waitState(t, ts, id, func(s Status) bool { return s.State.Terminal() })
	}
	if got := code(http.MethodDelete, "/v1/jobs/"+st.ID); got != http.StatusConflict {
		t.Errorf("cancel terminal job: status %d, want 409", got)
	}
}

// Bearer-token auth: everything except /healthz requires the token.
func TestServeAuth(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorlds: 1, Token: "s3cret"})
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("no token: status %d, want 401", resp.StatusCode)
	}
	if h := resp.Header.Get("WWW-Authenticate"); !strings.Contains(h, "Bearer") {
		t.Errorf("WWW-Authenticate = %q", h)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong token: status %d, want 401", resp.StatusCode)
	}

	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("right token: status %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz without token: status %d, want 200", resp.StatusCode)
	}
}

// SSE framing: Accept: text/event-stream switches each record to a
// `data: {...}` frame with a blank-line terminator.
func TestServeMetricsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorlds: 1})
	st := submit(t, ts, specJSON(3, 7))
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/metrics", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, line := range strings.Split(string(blob), "\n") {
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var r Record
			if err := json.Unmarshal([]byte(data), &r); err != nil {
				t.Fatalf("bad SSE data frame %q: %v", line, err)
			}
			frames++
		}
	}
	if frames != 3 {
		t.Errorf("streamed %d SSE frames, want 3", frames)
	}
	if !strings.Contains(string(blob), "}\n\n") {
		t.Error("SSE frames are not blank-line terminated")
	}
}

// Drain: running jobs checkpoint-and-stop, queued jobs cancel, further
// submissions bounce with 503, and Drain returns once workers exit.
func TestServeDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxWorlds: 1, QueueDepth: 4})
	running := submit(t, ts, specJSON(2000, 3))
	queued := submit(t, ts, specJSON(5, 4))
	waitState(t, ts, running.ID, func(s Status) bool { return s.StepsDone >= 2 })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	rf := getStatus(t, ts, running.ID)
	if rf.State != StateCancelled || !rf.Checkpoint {
		t.Errorf("running job after drain = %+v, want cancelled with checkpoint", rf)
	}
	qf := getStatus(t, ts, queued.ID)
	if qf.State != StateCancelled || qf.Checkpoint {
		t.Errorf("queued job after drain = %+v, want cancelled without checkpoint", qf)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(specJSON(3, 9)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

// The scheduler API level: a queued job cancelled before a worker picks
// it up never runs, and the job list preserves submission order.
func TestSchedulerQueuedCancelAndList(t *testing.T) {
	s, err := NewScheduler(Config{MaxWorlds: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	}()

	spec, err := parseSpec([]byte(specJSON(2000, 1)))
	if err != nil {
		t.Fatal(err)
	}
	blocker, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec2, _ := parseSpec([]byte(specJSON(5, 2)))
	victim, err := s.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cancel(victim.ID()); err != nil {
		t.Fatal(err)
	}
	if st := victim.State(); st != StateCancelled {
		t.Errorf("queued victim state = %s, want cancelled", st)
	}
	if err := s.cancel(victim.ID()); err == nil {
		t.Error("second cancel should be ErrJobTerminal")
	}
	if err := s.cancel(blocker.ID()); err != nil {
		t.Fatal(err)
	}

	list := s.list()
	if len(list) != 2 || list[0] != blocker || list[1] != victim {
		t.Errorf("List() out of submission order: %v", list)
	}

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !blocker.State().Terminal() {
		time.Sleep(2 * time.Millisecond)
	}
	if blocker.State() != StateCancelled {
		t.Errorf("blocker state = %s, want cancelled", blocker.State())
	}
	if victim.Checkpoint() != "" {
		t.Error("a job cancelled while queued must not have a checkpoint")
	}
}

// Synthetic micro-benchmark guard: the spec parser rejects configs the
// engine rejects, sharing sentinels end to end.
func TestSubmitPropagatesEngineSentinels(t *testing.T) {
	s, err := NewScheduler(Config{MaxWorlds: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	}()
	spec, err := parseSpec([]byte(specJSON(3, 1)))
	if err != nil {
		t.Fatal(err)
	}
	spec.Config.Ranks = 0
	spec.Config.Model = model.Config{}
	if _, err := s.Submit(spec); err == nil {
		t.Fatal("invalid config must not be admitted")
	} else if statusFor(err) != http.StatusBadRequest {
		t.Errorf("engine sentinel mapped to %d, want 400: %v", statusFor(err), err)
	}
}

// Every class of invalid engine config is the client's fault: one bad spec
// per class comes back 400 naming its class, never 500. The config's own
// JSON errors reach the daemon as spec errors, because the spec parser
// reads the whole document.
func TestServeAdmissionErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorlds: 1})
	good := specJSON(3, 1)
	bad := func(old, new string) string {
		if !strings.Contains(good, old) {
			t.Fatalf("spec has no %q", old)
		}
		return strings.Replace(good, old, new, 1)
	}
	for _, tc := range []struct{ class, body, wantErr string }{
		{"json", bad(`"lr": 3e-3`, `"lr": 3e-3, "bogus": 1`), "invalid job spec"},
		{"model", bad(`"hidden": 16`, `"hidden": 15`), "invalid model"},
		{"world", bad(`"ranks": 2`, `"ranks": -1`), "invalid world"},
		{"stage", bad(`"stage": 2`, `"stage": 7`), "invalid stage"},
		{"optimizer", bad(`"type": "adam"`, `"type": "adagrad"`), "invalid optimizer"},
		{"batch", bad(`"global_batch": 8`, `"global_batch": 12`), "invalid batch geometry"},
		{"topology", bad(`"seed": 1`, `"seed": 1, "node_size": 3`), "invalid topology"},
		{"schedule", bad(`"seed": 1`, `"seed": 1, "bucket_elems": -1`), "invalid schedule"},
		{"data", bad(`"seed": 1`, `"seed": 1, "data": {}`), "invalid data section"},
		{"precision", bad(`"seed": 1`, `"seed": 1, "precision": {"fp16_compute": true, "initial_loss_scale": -1}`),
			"invalid precision section"},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(blob), tc.wantErr) {
			t.Errorf("%s: status %d, body %.200s; want 400 naming %q", tc.class, resp.StatusCode, blob, tc.wantErr)
		}
	}
}

// elasticSpecJSON is specJSON plus the elastic supervisor knobs: snapshot
// cadence, restart budget, optional shrunk restart world, and an injected
// deterministic rank kill.
func elasticSpecJSON(steps, snapEvery, maxRestarts, restartRanks, faultRank, faultStep int) string {
	fault := ""
	if faultStep > 0 {
		fault = fmt.Sprintf(`, "fault": {"rank": %d, "step": %d}`, faultRank, faultStep)
	}
	ranks := ""
	if restartRanks > 0 {
		ranks = fmt.Sprintf(`, "restart_ranks": %d`, restartRanks)
	}
	return fmt.Sprintf(`{
		"steps": %d,
		"snapshot_every": %d,
		"max_restarts": %d%s%s,
		"config": {
			"model": {"layers": 1, "hidden": 16, "heads": 2, "vocab": 19, "seq": 8},
			"ranks": 2,
			"stage": 2,
			"optimizer": {"type": "adam", "lr": 3e-3},
			"global_batch": 8,
			"micro_batch": 4,
			"grad_accum_steps": 2,
			"seed": 11
		}
	}`, steps, snapEvery, maxRestarts, ranks, fault)
}

// The elastic fault-tolerance path end to end over HTTP: a rank is killed
// deterministically mid-run, the survivors error out instead of
// deadlocking, and the supervisor restarts the job from its last boundary
// snapshot — the job still runs to completion with a full-step checkpoint.
func TestElasticKillResume(t *testing.T) {
	const steps = 6
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{MaxWorlds: 1, SnapshotDir: dir})

	st := submit(t, ts, elasticSpecJSON(steps, 1, 1, 0, 1, 3))
	final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateSucceeded {
		t.Fatalf("job ended %s (err %q), want succeeded", final.State, final.Error)
	}
	if final.Restarts != 1 {
		t.Errorf("restarts = %d, want 1 (one injected kill)", final.Restarts)
	}
	if final.StepsDone != steps {
		t.Errorf("steps_done = %d, want %d", final.StepsDone, steps)
	}
	if !final.Checkpoint {
		t.Fatal("no final checkpoint after recovery")
	}

	// The consolidated checkpoint is the full-budget state.
	if snap := fetchCheckpoint(t, ts, st.ID); snap.OptSteps != steps {
		t.Errorf("checkpoint at step %d, want %d", snap.OptSteps, steps)
	}

	// The metric stream covers the full step range despite the restart
	// (replayed boundaries may repeat step numbers; the last one must be
	// the budget).
	recs := streamRecords(t, ts, st.ID)
	if len(recs) == 0 || recs[len(recs)-1].Step != steps {
		t.Errorf("metric stream ends at step %d of %d (%d records)",
			recs[len(recs)-1].Step, steps, len(recs))
	}
}

// An fp16 job killed after its loss scaler has backed off resumes with the
// scaler and the boundary clock of its last snapshot: every record of the
// restarted job — the replayed boundary included — carries the loss, scale
// and skip count of an uninterrupted job at the same step, the final
// checkpoint matches that job's bit for bit, and the persisted files keep
// rising in step. The scaler starts at 2^24, so the first 8 boundaries are
// overflow skips; the kill lands at boundary 11, after the snapshot at 10.
func TestElasticKillResumeFP16Scaler(t *testing.T) {
	const steps, every, skips, kill = 16, 2, 8, 11
	fp16 := func(body string) string {
		return strings.Replace(body, `"seed": 11`,
			`"seed": 11, "precision": {"fp16_compute": true, "initial_loss_scale": 16777216, "loss_scale_window": 4}`, 1)
	}
	run := func(faultStep int) ([]Record, *zero.Snapshot, string) {
		dir := t.TempDir()
		_, ts := newTestServer(t, Config{MaxWorlds: 1, SnapshotDir: dir})
		st := submit(t, ts, fp16(elasticSpecJSON(steps, every, 1, 0, 1, faultStep)))
		final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.Terminal() })
		if final.State != StateSucceeded || final.StepsDone != steps {
			t.Fatalf("job ended %s at step %d (err %q), want succeeded at %d", final.State, final.StepsDone, final.Error, steps)
		}
		return streamRecords(t, ts, st.ID), fetchCheckpoint(t, ts, st.ID), filepath.Join(dir, st.ID)
	}
	wantRecs, want, _ := run(0)
	if len(wantRecs) != steps {
		t.Fatalf("uninterrupted job streamed %d records, want %d", len(wantRecs), steps)
	}
	if r := wantRecs[every*(kill/every)-1]; r.OverflowSteps != skips || r.LossScale != 1<<16 {
		t.Fatalf("precondition: %d skips at scale %g by the last snapshot, want %d at 2^16", r.OverflowSteps, r.LossScale, skips)
	}
	gotRecs, got, dir := run(kill)
	if len(gotRecs) <= steps {
		t.Errorf("restarted job streamed %d records; the kill did not replay a boundary", len(gotRecs))
	}
	for _, r := range gotRecs {
		w := wantRecs[r.Step-1]
		if r.Loss != w.Loss || r.LossScale != w.LossScale || r.OverflowSteps != w.OverflowSteps {
			t.Errorf("step %d: restarted loss %.17g, scale %g, skips %d; uninterrupted %.17g, %g, %d",
				r.Step, r.Loss, r.LossScale, r.OverflowSteps, w.Loss, w.LossScale, w.OverflowSteps)
		}
	}
	if got.Boundaries() != steps || got.OptSteps != want.OptSteps || got.LossScale != want.LossScale ||
		got.CleanSteps != want.CleanSteps || got.Skips != want.Skips {
		t.Errorf("restarted checkpoint clock %+v, uninterrupted %+v",
			[]any{got.OptSteps, got.LossScale, got.CleanSteps, got.Skips}, []any{want.OptSteps, want.LossScale, want.CleanSteps, want.Skips})
	}
	if d := testutil.MaxDiff(params(t, got), params(t, want)); d != 0 {
		t.Errorf("restarted final parameters differ from uninterrupted by %g", d)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*.zelc"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no persisted snapshots (%v)", err)
	}
	if last := filepath.Base(files[len(files)-1]); last != fmt.Sprintf("ckpt-%09d.zelc", steps) {
		t.Errorf("newest persisted snapshot is %s, want step %d's", last, steps)
	}
}

// encode is the snapshot's ZELC bytes.
func encode(t *testing.T, s *zero.Snapshot) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := s.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// params returns the snapshot's fp32 master parameters, whole: the first
// NumParams floats of its one slab regrouped for a single rank.
func params(t *testing.T, s *zero.Snapshot) []float32 {
	t.Helper()
	one, err := s.Regroup(1)
	if err != nil {
		t.Fatal(err)
	}
	return one.Slabs[0][:s.NumParams]
}

// fetchCheckpoint GETs and decodes a terminal job's final snapshot.
func fetchCheckpoint(t *testing.T, ts *httptest.Server, id string) *zero.Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := zero.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// A ckpt-*.zelc the daemon's snapshotter persisted is an ordinary snapshot
// file: read back the way `zerotrain -load` reads it (os.ReadFile +
// zero.DecodeSnapshot + engine.Load), it (a) continues bitwise with the
// uninterrupted run at the same N — the job itself, whose final state the
// checkpoint route serves — and (b) loads at M = N/2 with no conversion and
// tracks a from-scratch M-rank run within reduction-tree tolerance (the
// N-rank prefix grouped its sums differently, so ≤ 1e-3, not bitwise).
func TestPersistedSnapshotResumes(t *testing.T) {
	const steps, every, from = 6, 2, 4
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{MaxWorlds: 1, SnapshotDir: dir})
	body := strings.Replace(elasticSpecJSON(steps, every, 0, 0, 0, 0), `"ranks": 2`, `"ranks": 4`, 1)
	st := submit(t, ts, body)
	if final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.Terminal() }); final.State != StateSucceeded {
		t.Fatalf("job ended %s (err %q), want succeeded", final.State, final.Error)
	}
	want := fetchCheckpoint(t, ts, st.ID)

	blob, err := os.ReadFile(filepath.Join(dir, st.ID, fmt.Sprintf("ckpt-%09d.zelc", from)))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := zero.DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if snap.OptSteps != from || snap.WorldSize != 4 {
		t.Fatalf("persisted snapshot at step %d from %d ranks, want %d from 4", snap.OptSteps, snap.WorldSize, from)
	}

	spec, err := parseSpec([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	// run trains an m-rank world to the step budget, from resume when given
	// (replaying the deterministic stream's consumed prefix, as the
	// supervisor does), and returns the final consolidated state.
	run := func(m int, resume *zero.Snapshot) *zero.Snapshot {
		cfg := spec.Config
		cfg.Ranks = m
		cfg, err := cfg.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		var out *zero.Snapshot
		if _, err := engine.Run(cfg, func(e *engine.Engine) {
			b := model.NewSyntheticStream(cfg.Seed, cfg.GlobalBatch, cfg.MicroBatch, cfg.Model.Seq, cfg.Model.Vocab)
			if resume != nil {
				if err := e.Load(resume); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < resume.OptSteps*cfg.GradAccumSteps; i++ {
					b.NextBatch()
				}
			}
			for e.Steps() < steps {
				e.TrainStream(b)
			}
			if s := e.Save(); s != nil {
				out = s
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	same := run(4, snap)
	if same.OptSteps != want.OptSteps {
		t.Fatalf("resumed run ended at step %d, job at %d", same.OptSteps, want.OptSteps)
	}
	if !bytes.Equal(encode(t, same), encode(t, want)) {
		t.Errorf("same-N resume from the persisted file: the final state differs from the uninterrupted job's")
	}

	half, scratch := run(2, snap), run(2, nil)
	if d := testutil.MaxDiff(params(t, half), params(t, scratch)); d > 1e-3 {
		t.Errorf("resume at N/2 drifted %g from a from-scratch 2-rank run", d)
	}
}

// Elastic shrink on restart: the replacement world runs at restart_ranks=1,
// its one rank loading the whole of the 2-rank snapshot — and the job still
// finishes.
func TestElasticKillResumeShrunkWorld(t *testing.T) {
	const steps = 5
	_, ts := newTestServer(t, Config{MaxWorlds: 1})

	st := submit(t, ts, elasticSpecJSON(steps, 1, 2, 1, 0, 2))
	final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateSucceeded {
		t.Fatalf("job ended %s (err %q), want succeeded", final.State, final.Error)
	}
	if final.Ranks != 1 {
		t.Errorf("post-restart world size = %d, want 1", final.Ranks)
	}
	if final.Restarts != 1 || final.StepsDone != steps {
		t.Errorf("restarts=%d steps_done=%d, want 1 and %d", final.Restarts, final.StepsDone, steps)
	}
}

// A persistent SnapshotDir outlives its daemon, so a daemon over it
// numbers its jobs after those already there rather than writing into an
// earlier daemon's job directory: here a first daemon's 10-step job leaves
// job-000001/ckpt-9, ckpt-10 and final.zelc, and a second daemon's job,
// killed at step 3, is job-000002. The first daemon's files are
// byte-identical afterwards, and the second job resumes from its own
// step-2 file and ends bitwise equal to an uninterrupted run.
func TestElasticPruneKeepsJobsNewest(t *testing.T) {
	const steps, stale = 6, 10
	run := func(dir, body string) (Status, *zero.Snapshot) {
		_, ts := newTestServer(t, Config{MaxWorlds: 1, SnapshotDir: dir})
		st := submit(t, ts, body)
		final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.Terminal() })
		if final.State != StateSucceeded {
			t.Fatalf("job ended %s (err %q), want succeeded", final.State, final.Error)
		}
		return final, fetchCheckpoint(t, ts, st.ID)
	}
	// files maps each file of a job directory to its bytes.
	files := func(jobDir string) map[string][]byte {
		ents, err := os.ReadDir(jobDir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(ents))
		for _, e := range ents {
			if out[e.Name()], err = os.ReadFile(filepath.Join(jobDir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	dir := t.TempDir()
	first, _ := run(dir, elasticSpecJSON(stale, 1, 0, 0, 0, 0))
	earlier := files(filepath.Join(dir, first.ID))
	_, want := run(t.TempDir(), elasticSpecJSON(steps, 1, 0, 0, 0, 0))
	st, got := run(dir, elasticSpecJSON(steps, 1, 1, 0, 1, 3))
	if first.ID != "job-000001" || st.ID != "job-000002" || st.Restarts != 1 {
		t.Fatalf("jobs %s then %s (restarted %d times), want job-000001 then job-000002 restarted once", first.ID, st.ID, st.Restarts)
	}
	if !bytes.Equal(encode(t, got), encode(t, want)) {
		t.Errorf("the resumed job's final state differs from the uninterrupted job's")
	}
	if later := files(filepath.Join(dir, first.ID)); !reflect.DeepEqual(later, earlier) {
		t.Errorf("the second daemon changed the first's job directory")
	}
	for _, name := range []string{fmt.Sprintf("ckpt-%09d.zelc", stale), fmt.Sprintf("ckpt-%09d.zelc", stale-1), "final.zelc"} {
		if _, ok := earlier[name]; !ok {
			t.Errorf("the first job left no %s", name)
		}
	}
}

// Without a restart budget, a rank death fails the job — loudly, with the
// dead rank named, not a hang.
func TestElasticKillNoBudgetFails(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorlds: 1})
	st := submit(t, ts, elasticSpecJSON(6, 1, 0, 0, 1, 2))
	final := waitState(t, ts, st.ID, func(s Status) bool { return s.State.Terminal() })
	if final.State != StateFailed {
		t.Fatalf("job ended %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "killed by fault injection") {
		t.Errorf("failure cause %q does not name the injected kill", final.Error)
	}
}

// Supervisor knob validation at admission: bad fault geometry and
// non-divisible restart worlds bounce with 400-class spec errors.
func TestElasticSpecValidation(t *testing.T) {
	sched, err := NewScheduler(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sched.Drain(ctx) //nolint:errcheck
	}()
	base := func() Spec {
		s, err := parseSpec([]byte(specJSON(3, 1)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	bad := base()
	bad.Fault = &FaultSpec{Rank: 7, Step: 1}
	if _, err := sched.Submit(bad); err == nil {
		t.Error("fault rank outside the world accepted")
	}
	bad = base()
	bad.Fault = &FaultSpec{Rank: 0, Step: 0}
	if _, err := sched.Submit(bad); err == nil {
		t.Error("fault step 0 accepted")
	}
	bad = base()
	bad.RestartRanks = 3 // micro_batch 4 % 3 != 0
	if _, err := sched.Submit(bad); err == nil {
		t.Error("non-divisible restart_ranks accepted")
	}
	bad = base()
	bad.MaxRestarts = -1
	if _, err := sched.Submit(bad); err == nil {
		t.Error("negative max_restarts accepted")
	}
}

// FuzzParseSpec: any body is rejected, or the Spec it parses to survives
// json.Marshal → parseSpec unchanged; nothing panics. Seeded with the spec
// bodies these tests submit.
func FuzzParseSpec(f *testing.F) {
	for _, body := range []string{
		specJSON(3, 1),
		elasticSpecJSON(6, 1, 2, 1, 0, 2),
		strings.Replace(elasticSpecJSON(4, 2, 0, 0, 0, 0), `"ranks": 2`, `"ranks": 4`, 1),
		strings.Replace(specJSON(3, 1), `"seed": 1`,
			`"seed": 1, "data": {"path": "corpus.txt", "tokenizer": "byte", "seq_len": 8}`, 1),
		strings.Replace(specJSON(3, 1), `"seed": 1`,
			`"seed": 1, "stage": "os+g", "precision": {"fp16_compute": true, "initial_loss_scale": 65536}`, 1),
		`{"steps": `,
		`{"steps": 1, "bogus": 2, "config": {}}`,
		`{"steps": 1, "config": {}}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := parseSpec(body)
		if err != nil {
			return
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal parsed spec: %v", err)
		}
		back, err := parseSpec(out)
		if err != nil {
			t.Fatalf("re-parse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, spec)
		}
	})
}
