package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
)

// daemon is an in-process job daemon behind a real HTTP listener, and the
// one closed-loop client that drives it: job j+1 is submitted after job j
// is terminal and its checkpoint fetched.
type daemon struct {
	srv *serve.Server
	ts  *httptest.Server
	rec *recorder // nil while untraced

	requests int // HTTP requests attempted
	failed   int // ... that did not return 2xx
}

func startDaemon(snapshotDir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{MaxWorlds: 1, SnapshotDir: snapshotDir}, nil)
	if err != nil {
		return nil, err
	}
	return &daemon{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

// stop closes the listener and waits for the scheduler's workers to exit.
func (d *daemon) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Drain(ctx)
}

// do sends one request and counts it; the caller closes the body.
func (d *daemon) do(method, path string, body []byte) (*http.Response, error) {
	d.requests++
	req, err := http.NewRequest(method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		d.failed++
		return nil, err
	}
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		d.failed++
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		d.failed++
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s", method, path, resp.Status)
	}
	return resp, nil
}

// jobSpec is the submission body: the config travels as generated JSON.
func jobSpec(cfgJSON []byte, steps, snapshotEvery int) ([]byte, error) {
	return json.Marshal(struct {
		Steps         int             `json:"steps"`
		SnapshotEvery int             `json:"snapshot_every,omitempty"`
		Config        json.RawMessage `json:"config"`
	}{steps, snapshotEvery, cfgJSON})
}

// jobStatus and jobRecord are the fields of the daemon's JSON this client
// reads; the checkpoint body is opaque bytes.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	StepsDone int    `json:"steps_done"`
}

type jobRecord struct {
	Step      int    `json:"step"`
	WireBytes int64  `json:"wire_bytes"`
	Allocs    uint64 `json:"allocs"`
}

// jobResult is one job as the client saw it.
type jobResult struct {
	submitted   time.Time
	firstRecord time.Time // arrival of the first record on the follow stream
	lastRecord  time.Time
	terminal    time.Time // first status poll that read a terminal state
	done        time.Time // checkpoint fetched

	submitSec  float64 // POST sent → status decoded
	pollSec    []float64
	gapSec     []float64 // inter-record arrival on the follow stream
	records    []jobRecord
	state      string
	stepsDone  int
	checkpoint int // bytes
	err        error
}

// runJob drives one job to its checkpoint: POST, follow the NDJSON metric
// stream to its close, poll the status until terminal, GET the checkpoint.
func (d *daemon) runJob(spec []byte, trace int) jobResult {
	var jr jobResult
	rec := d.rec
	jid := rec.open(spanJob, -1, trace)
	defer rec.close(jid)

	jr.submitted = time.Now()
	id := rec.open(spanSubmit, jid, trace)
	resp, err := d.do("POST", "/v1/jobs", spec)
	var st jobStatus
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	rec.close(id)
	jr.submitSec = time.Since(jr.submitted).Seconds()
	if err != nil {
		jr.err = err
		return jr
	}

	id = rec.open(spanFollow, jid, trace)
	resp, err = d.do("GET", "/v1/jobs/"+st.ID+"/metrics", nil)
	if err == nil {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			now := time.Now()
			if jr.firstRecord.IsZero() {
				jr.firstRecord = now
			} else {
				jr.gapSec = append(jr.gapSec, now.Sub(jr.lastRecord).Seconds())
			}
			jr.lastRecord = now
			var r jobRecord
			if err = json.Unmarshal(sc.Bytes(), &r); err != nil {
				break
			}
			jr.records = append(jr.records, r)
		}
		if err == nil {
			err = sc.Err()
		}
		resp.Body.Close()
	}
	rec.close(id)
	if err != nil {
		jr.err = err
		return jr
	}

	for deadline := time.Now().Add(30 * time.Second); ; {
		t := time.Now()
		id = rec.open(spanPoll, jid, trace)
		resp, err = d.do("GET", "/v1/jobs/"+st.ID, nil)
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
		}
		rec.close(id)
		jr.pollSec = append(jr.pollSec, time.Since(t).Seconds())
		if err != nil {
			jr.err = err
			return jr
		}
		if st.State == "succeeded" || st.State == "failed" || st.State == "cancelled" {
			break
		}
		if time.Now().After(deadline) {
			jr.err = fmt.Errorf("job %s still %s 30s after its metric stream closed", st.ID, st.State)
			return jr
		}
		time.Sleep(time.Millisecond)
	}
	jr.terminal = time.Now()
	jr.state, jr.stepsDone = st.State, st.StepsDone

	id = rec.open(spanCheckpoint, jid, trace)
	resp, err = d.do("GET", "/v1/jobs/"+st.ID+"/checkpoint", nil)
	if err == nil {
		var n int64
		n, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		jr.checkpoint = int(n)
	}
	rec.close(id)
	jr.done = time.Now()
	jr.err = err
	return jr
}

// failure says why the job does not count as done, or "" when it does:
// succeeded, one record per step, and a checkpoint of at least the 4Ψ bytes
// the fp32 parameters alone take.
func (jr jobResult) failure(steps, psi int) string {
	switch {
	case jr.err != nil:
		return jr.err.Error()
	case jr.state != "succeeded":
		return "ended " + jr.state
	case len(jr.records) != steps || jr.stepsDone != steps:
		return fmt.Sprintf("%d records and %d steps done, want %d", len(jr.records), jr.stepsDone, steps)
	case jr.checkpoint < 4*psi:
		return fmt.Sprintf("checkpoint %d bytes, want at least %d", jr.checkpoint, 4*psi)
	}
	return ""
}

// daemonSetup measures the daemon's set-up: build the server, listen,
// submit a job, and wait for its first record. The job runs out so the
// daemon can stop cleanly.
func daemonSetup(snapshotDir string, spec []byte) (float64, error) {
	start := time.Now()
	d, err := startDaemon(snapshotDir)
	if err != nil {
		return 0, err
	}
	jr := d.runJob(spec, 0)
	if err := d.stop(); err != nil {
		return 0, err
	}
	if jr.err != nil {
		return 0, jr.err
	}
	return jr.firstRecord.Sub(start).Seconds(), nil
}
