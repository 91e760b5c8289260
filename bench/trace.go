package main

import (
	"encoding/json"
	"os"
	"time"
)

// Span names. Each span is recorded from this package, around a call into
// one layer's public function; the name's prefix is that layer.
const (
	spanStep     = "engine.step" // one optimizer step on one rank; parent of the phases
	spanForward  = "engine.forward"
	spanBackward = "engine.backward"
	spanUpdate   = "engine.update" // Engine.Step: accumulation bookkeeping, optimizer, boundary hooks
	spanBatch    = "data.next_batch"
	spanTick     = "elastic.tick" // the snapshot hook, child of the update that fired it

	spanJob        = "serve.job" // submit → checkpoint fetched; parent of the HTTP calls
	spanSubmit     = "serve.submit"
	spanFollow     = "serve.follow"
	spanPoll       = "serve.status_poll"
	spanCheckpoint = "serve.checkpoint_fetch"
)

const clientRank = -1 // spans of the daemon's HTTP client, which is no rank

// span is one timed interval. Times are nanoseconds since processStart; Parent is an index into the same recorder, -1 for a root; spans of
// one optimizer step (or one daemon job) share Trace.
type span struct {
	Name   string
	Parent int
	Trace  int
	Start  int64
	End    int64
}

// processStart is the zero of every span's clock, so the spans of all ranks
// and of the daemon client line up in one trace file.
var processStart = time.Now()

// recorder keeps one goroutine's spans in memory. A nil recorder records
// nothing and reads no clock, so the untraced run pays a nil check per call
// site and nothing else.
type recorder struct {
	rank  int
	spans []span
}

// newRecorder sizes the buffer up front so the traced loop does not grow it.
func newRecorder(rank, capacity int) *recorder {
	return &recorder{rank: rank, spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(processStart))
}

// open starts a span whose children will name it as parent; close ends it.
func (r *recorder) open(name string, parent, trace int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Trace: trace, Start: r.now()})
	return len(r.spans) - 1
}

func (r *recorder) close(id int) {
	if r != nil {
		r.spans[id].End = r.now()
	}
}

// durations returns the length in seconds of every span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// sumByParent returns, for every span called parent, the summed length in
// seconds of its direct children called name.
func (r *recorder) sumByParent(parent, name string) []float64 {
	var out []float64
	idx := make(map[int]int) // parent span → position in out
	for i, s := range r.spans {
		switch {
		case s.Name == parent:
			idx[i] = len(out)
			out = append(out, 0)
		case s.Name == name && s.Parent >= 0:
			if at, ok := idx[s.Parent]; ok {
				out[at] += float64(s.End-s.Start) / 1e9
			}
		}
	}
	return out
}

// selfTimes returns, for every span called name, its duration minus the
// part its direct children cover, in seconds.
func (r *recorder) selfTimes(name string) []float64 {
	child := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-child[i])/1e9)
		}
	}
	return out
}

// traceSpan is a span as written to disk: ids are unique across recorders.
type traceSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // -1 for a root
	Trace   int    `json:"trace"`
	Rank    int    `json:"rank"` // -1 for the daemon client
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace writes every recorder's spans to one JSON file and returns the
// span count.
func writeTrace(path string, recs []*recorder) (int, error) {
	var out []traceSpan
	for _, r := range recs {
		off := len(out)
		for i, s := range r.spans {
			parent := -1
			if s.Parent >= 0 {
				parent = off + s.Parent
			}
			out = append(out, traceSpan{
				ID: off + i, Name: s.Name, Parent: parent, Trace: s.Trace,
				Rank: r.rank, StartNs: s.Start, EndNs: s.End,
			})
		}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		return 0, err
	}
	return len(out), os.WriteFile(path, blob, 0o644)
}
