// Command zeroserve is the training-as-a-service daemon: an HTTP/JSON
// control plane that accepts engine.Config job submissions, trains each in
// its own isolated simulated world under a bounded multi-job scheduler,
// streams live per-step metrics, and serves consolidated checkpoints.
//
//	zeroserve                               # defaults: :8400, 2 worlds
//	zeroserve -addr :9000 -max-worlds 4
//	zeroserve -config server.json           # serve.Config; flags override
//	zeroserve -token s3cret                 # bearer-token auth
//
// Endpoints (see README "Serving"):
//
// Jobs may opt into elastic fault tolerance: "snapshot_every" takes async
// boundary snapshots, "max_restarts" lets the supervisor restart a job that
// lost a rank from its newest snapshot file, "restart_ranks" retries in a smaller
// world (the snapshot loads at any size), and "fault" injects a deterministic rank
// kill for drills (see README "Elastic checkpointing & recovery").
//
//	POST   /v1/jobs                   submit {"steps": N, "config": {...}}
//	GET    /v1/jobs                   list jobs
//	GET    /v1/jobs/{id}              job status
//	GET    /v1/jobs/{id}/metrics      per-step NDJSON (SSE via Accept)
//	DELETE /v1/jobs/{id}              cancel
//	GET    /v1/jobs/{id}/checkpoint   final snapshot's ZELC file (zerotrain -load reads it)
//	GET    /healthz                   liveness, no auth
//
// SIGINT/SIGTERM drains gracefully: the listener stops, queued jobs are
// cancelled, and running jobs checkpoint-and-stop at their next
// accumulation boundary before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("zeroserve: ")
	def := serve.DefaultConfig()
	var (
		configPath = flag.String("config", "", "JSON server config (serve.Config); flags override its fields")
		addr       = flag.String("addr", def.Addr, "HTTP listen address")
		token      = flag.String("token", "", "bearer token required on every endpoint except /healthz (empty = open)")
		maxWorlds  = flag.Int("max-worlds", def.MaxWorlds, "jobs training concurrently, each in its own world")
		queueDepth = flag.Int("queue-depth", def.QueueDepth, "admitted jobs waiting behind the running ones")
		ringSize   = flag.Int("ring", def.MetricRing, "per-job metric ring capacity in step records")
		maxSteps   = flag.Int("max-steps", def.MaxSteps, "per-job optimizer step cap")
		snapDir    = flag.String("snapshot-dir", "", "directory for per-job final checkpoints and elastic snapshots (empty = both go to a temp dir removed at drain)")
		snapKeep   = flag.Int("snapshot-keep", def.SnapshotKeep, "elastic snapshot files retained per job")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for running jobs to checkpoint-and-stop")
	)
	flag.Parse()

	cfg := def
	if *configPath != "" {
		blob, err := os.ReadFile(*configPath)
		if err != nil {
			log.Fatal(err)
		}
		if cfg, err = serve.ParseConfig(blob); err != nil {
			log.Fatal(err)
		}
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "addr":
			cfg.Addr = *addr
		case "token":
			cfg.Token = *token
		case "max-worlds":
			cfg.MaxWorlds = *maxWorlds
		case "queue-depth":
			cfg.QueueDepth = *queueDepth
		case "ring":
			cfg.MetricRing = *ringSize
		case "max-steps":
			cfg.MaxSteps = *maxSteps
		case "snapshot-dir":
			cfg.SnapshotDir = *snapDir
		case "snapshot-keep":
			cfg.SnapshotKeep = *snapKeep
		}
	})

	srv, err := serve.New(cfg, log.Default())
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Addr: srv.Config().Addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (max %d concurrent worlds, queue %d)",
			srv.Config().Addr, srv.Config().MaxWorlds, srv.Config().QueueDepth)
		errc <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatal(err)
	case s := <-sig:
		log.Printf("%v: draining (running jobs checkpoint-and-stop at their next boundary)", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		log.Fatalf("drain: %v (jobs may not have checkpointed)", err)
	}
	log.Print("drained cleanly")
}
