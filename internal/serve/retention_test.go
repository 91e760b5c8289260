package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
)

// retentionSpecJSON is a job the shape of the benchmark's serve-snap: 2
// ranks at stage 2 with Adam over a 110,336-parameter model, whose ZELC
// checkpoint is 1.3 MB, and an elastic snapshot every 2 steps.
func retentionSpecJSON(steps int) string {
	return fmt.Sprintf(`{
		"steps": %d,
		"snapshot_every": 2,
		"config": {
			"model": {"layers": 2, "hidden": 64, "heads": 4, "vocab": 128, "seq": 32},
			"ranks": 2,
			"stage": 2,
			"optimizer": {"type": "adam", "lr": 3e-3},
			"global_batch": 8,
			"micro_batch": 8,
			"seed": 5
		}
	}`, steps)
}

// liveHeap is the heap in use once everything unreachable is swept: two
// collections, so sync.Pool's victim caches are emptied too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A finished job costs the daemon a file, not its model state. Six jobs
// run one after another on a daemon with no SnapshotDir; after each, its
// served checkpoint is fetched and must be byte for byte what Save and
// WriteTo give for the same run. The live heap after job 6 may exceed that
// after job 2 by less than one checkpoint — a daemon that kept each
// finished job's checkpoint in memory grows by four. A Range request gets
// its slice of the file, and Drain removes the private directory the
// checkpoints were written to, after which the route answers 409.
func TestServeHeapIndependentOfServedJobs(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instruments allocations; heap budgets do not hold")
	}
	const jobs, steps = 6, 4

	spec, err := parseSpec([]byte(retentionSpecJSON(steps)))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	if _, err := engine.Run(cfg, func(e *engine.Engine) {
		b := model.NewSyntheticStream(cfg.Seed, cfg.GlobalBatch, cfg.MicroBatch, cfg.Model.Seq, cfg.Model.Vocab)
		for e.Steps() < steps {
			e.TrainStream(b)
		}
		if s := e.Save(); s != nil {
			want = encode(t, s)
		}
	}); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{MaxWorlds: 1})
	get := func(id string, header http.Header) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/checkpoint", nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range header {
			req.Header[k] = v
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	var heap [jobs + 1]uint64
	var id string
	for i := 1; i <= jobs; i++ {
		id = submit(t, ts, retentionSpecJSON(steps)).ID
		if st := waitState(t, ts, id, func(s Status) bool { return s.State.Terminal() }); st.State != StateSucceeded {
			t.Fatalf("job %d ended %s (%s)", i, st.State, st.Error)
		}
		resp, body := get(id, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("job %d: checkpoint status %d, %d bytes; want 200 and the %d bytes Save and WriteTo give",
				i, resp.StatusCode, len(body), len(want))
		}
		if ct, js := resp.Header.Get("Content-Type"), resp.Header.Get("X-Zeroserve-Job-State"); ct != "application/octet-stream" || js != string(StateSucceeded) {
			t.Errorf("job %d: Content-Type %q, X-Zeroserve-Job-State %q", i, ct, js)
		}
		heap[i] = liveHeap()
	}
	if grew := int64(heap[jobs]) - int64(heap[2]); grew >= int64(len(want)) {
		t.Errorf("live heap grew %d B over jobs 3–%d, at least one %d B checkpoint (after each job: %v)",
			grew, jobs, len(want), heap[1:])
	}

	resp, body := get(id, http.Header{"Range": {"bytes=1000-4095"}})
	if resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, want[1000:4096]) {
		t.Errorf("Range bytes=1000-4095: status %d, %d bytes; want 206 and bytes [1000, 4096) of the checkpoint",
			resp.StatusCode, len(body))
	}
	if cr, wantCR := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes 1000-4095/%d", len(want)); cr != wantCR {
		t.Errorf("Content-Range = %q, want %q", cr, wantCR)
	}

	dir := srv.sched.dir
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("private checkpoint directory before drain: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("private checkpoint directory %s after drain: %v, want it gone", dir, err)
	}
	if resp, _ := get(id, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("checkpoint after drain removed its file: status %d, want 409", resp.StatusCode)
	}
}
