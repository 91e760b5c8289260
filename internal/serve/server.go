package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
)

// maxSpecBytes bounds a job-submission body (a config is a few KB; the
// cap just keeps a misdirected upload from buffering unbounded).
const maxSpecBytes = 1 << 20

// Server is the control plane's HTTP front end: routing, the standard
// service middleware (panic recovery, request logging, bearer-token auth)
// and the JSON/NDJSON/SSE encodings over one Scheduler.
//
//	GET    /healthz                   liveness (no auth)
//	POST   /v1/jobs                   submit a Spec, 201 + Status
//	GET    /v1/jobs                   list all jobs
//	GET    /v1/jobs/{id}              one job's Status
//	GET    /v1/jobs/{id}/metrics      stream per-step Records (NDJSON/SSE)
//	DELETE /v1/jobs/{id}              cancel (checkpoint-and-stop if running)
//	GET    /v1/jobs/{id}/checkpoint   the final zero.Snapshot's ZELC file (what zerotrain -load reads)
type Server struct {
	cfg     Config
	sched   *Scheduler
	handler http.Handler
	logger  *log.Logger
}

// New builds a server (and its scheduler) from cfg. logger may be nil for
// silent operation (tests).
func New(cfg Config, logger *log.Logger) (*Server, error) {
	norm, err := cfg.Normalized()
	if err != nil {
		return nil, err
	}
	sched, err := NewScheduler(norm)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: norm, sched: sched, logger: logger}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleCheckpoint)
	s.handler = withRecovery(withLogging(withAuth(mux, norm.Token), logger), logger)
	return s, nil
}

// Handler returns the middleware-wrapped root handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Config returns the normalized server configuration.
func (s *Server) Config() Config { return s.cfg }

// Drain gracefully stops the scheduler: see Scheduler.Drain.
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// statusFor maps an error to its HTTP status: invalid configs and specs
// are the client's fault (400), backpressure is 429, draining 503,
// unknown ids 404, state conflicts 409, a body over its cap 413.
func statusFor(err error) int {
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrJobTerminal), errors.Is(err, ErrNoCheckpoint):
		return http.StatusConflict
	case errors.Is(err, ErrSpec), errors.Is(err, ErrConfig), errors.Is(err, engine.ErrConfig):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeError maps err to its status and a one-field JSON body.
func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), map[string]string{"error": err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.sched.isDraining()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readAll(w, r, maxSpecBytes)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %w", ErrSpec, err))
		return
	}
	spec, err := parseSpec(body)
	if err != nil {
		writeError(w, err)
		return
	}
	j, st, err := s.sched.submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.list()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, err := s.sched.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.cancel(id); err != nil {
		writeError(w, err)
		return
	}
	j, _ := s.sched.Get(id)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleMetrics streams the job's per-step records from the ring: every
// buffered record from the requested cursor (?from=N, default oldest
// retained), then live follow until the job goes terminal or the client
// disconnects. NDJSON by default; `Accept: text/event-stream` switches to
// SSE framing.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	j, err := s.sched.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	var cursor int64
	if from := r.URL.Query().Get("from"); from != "" {
		if cursor, err = strconv.ParseInt(from, 10, 64); err != nil || cursor < 0 {
			writeError(w, fmt.Errorf("%w: from=%q (want a step sequence ≥ 0)", ErrSpec, from))
			return
		}
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// A disconnected client must unblock the ring wait.
	ring := j.ring
	stop := context.AfterFunc(r.Context(), ring.wake)
	defer stop()
	gone := func() bool { return r.Context().Err() != nil }

	enc := json.NewEncoder(w)
	for {
		rec, next, ok := ring.next(cursor, gone)
		if !ok {
			return // job terminal and drained, or client gone
		}
		cursor = next
		if sse {
			if _, err := io.WriteString(w, "data: "); err != nil {
				return
			}
		}
		if err := enc.Encode(rec); err != nil {
			return
		}
		if sse {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleCheckpoint streams the consolidated final snapshot's file once the
// job is terminal, through http.ServeContent (so Range requests work). 409
// while the job is still queued/running, when it ended without state
// (failed, or cancelled before its world came up), or when the file is gone
// (a private checkpoint directory is removed at drain).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, err := s.sched.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if !j.State().Terminal() {
		writeError(w, fmt.Errorf("%w: job %s is %s (cancel it or wait)", ErrNoCheckpoint, j.ID(), j.State()))
		return
	}
	path := j.Checkpoint()
	if path == "" {
		writeError(w, fmt.Errorf("%w: job %s ended %s without consolidated state", ErrNoCheckpoint, j.ID(), j.State()))
		return
	}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		err = fmt.Errorf("%w: job %s: %w", ErrNoCheckpoint, j.ID(), err)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Zeroserve-Job-State", string(j.State()))
	http.ServeContent(w, r, "", time.Time{}, f)
}

// readAll slurps a request body of at most limit bytes. A longer body is
// an error wrapping *http.MaxBytesError that names the cap (413), not a
// truncated read that would surface as a JSON syntax error.
func readAll(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, fmt.Errorf("body over the %d-byte cap: %w", tooLarge.Limit, err)
	}
	return body, err
}
