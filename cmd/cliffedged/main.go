// Command cliffedged serves campaigns over HTTP: clients POST a campaign
// spec, follow per-run progress over SSE, and fetch the final report as
// JSON or CSV. All campaigns share one fair-share worker pool — a small
// sweep submitted behind a large one starts immediately and both advance
// at the same per-campaign rate — with a per-client cap on concurrently
// active campaigns.
//
// Every completed run is committed to an append-only store before the
// next begins, so the daemon can be killed (even -9) at any moment: on
// restart it replays the logs, resumes every interrupted sweep where it
// left off, and the eventual reports are byte-identical to uninterrupted
// ones. The same store directory is shared with cliffedge-campaign
// -store/-resume.
//
//	cliffedged -addr :8080 -store ./data -workers 8
//
//	curl -X POST localhost:8080/api/v1/campaigns -d '{
//	    "topologies": ["grid", "ring"], "regimes": ["quiescent"],
//	    "engines": ["sim"], "seed_start": 1, "seeds": 64, "repeats": 1}'
//	curl -N localhost:8080/api/v1/campaigns/c000001/events   # SSE stream
//	curl    localhost:8080/api/v1/campaigns/c000001/report.csv
//	curl -X DELETE localhost:8080/api/v1/campaigns/c000001   # cancel
//
// With -coordinator the daemon becomes a fleet coordinator instead: it
// runs no campaigns itself, but shards submitted specs across a pool of
// ordinary cliffedged workers (given to -workers as comma-separated base
// URLs), merges their result streams, and re-leases the shards of lost
// workers to the survivors. The merged report is byte-identical to a
// single-box run of the same spec, and a coordinator killed mid-fleet
// resumes from its store exactly like a worker does.
//
//	cliffedged -coordinator -addr :8090 -store ./fleet-data \
//	    -workers http://n1:8080,http://n2:8080,http://n3:8080
//
//	curl -X POST localhost:8090/api/v1/fleets -d '{
//	    "topologies": ["ring"], "regimes": ["quiescent"],
//	    "engines": ["sim"], "seed_start": 1, "seeds": 600, "repeats": 1}'
//	curl -N localhost:8090/api/v1/fleets/f000001/events      # merged SSE
//	curl    localhost:8090/api/v1/fleets/f000001/report.json
//
// Both modes serve one handler set (serve.Handler) — the coordinator is a
// second backend behind it — so every campaign route exists under
// /api/v1/fleets with the same documents, SSE rules and error bodies.
//
// Observability: both modes expose GET /metrics (Prometheus text format)
// and a JSON /healthz on the main listener; -debug-addr opens a second,
// private listener with net/http/pprof and a /metrics mirror. -log-level
// and -log-format control the structured (log/slog) operational log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cliffedge"
	"cliffedge/internal/fleet"
	"cliffedge/internal/obs"
	"cliffedge/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		storeDir    = flag.String("store", "cliffedged-data", "campaign store directory (created if absent)")
		workers     = flag.String("workers", "", "worker mode: shared worker-pool size (empty or 0 = GOMAXPROCS); coordinator mode: comma-separated worker base URLs")
		maxClient   = flag.Int("max-client", 4, "max concurrently active campaigns per client (worker mode)")
		liveTick    = flag.Duration("live-tick", 0, "realise network-model delays of live-engine runs in wall time, this long per tick (0 = off; worker mode)")
		traces      = flag.Bool("traces", false, "persist every run's full binary trace under <store>/<id>/traces (convert with cliffedge-trace; worker mode)")
		coordinator = flag.Bool("coordinator", false, "run as a fleet coordinator sharding campaigns across the -workers URLs")
		shards      = flag.Int("shards", 0, "coordinator: shards per fleet (0 = 4×workers, capped at the seed count)")
		perWorker   = flag.Int("per-worker", 2, "coordinator: max concurrently leased shards per worker")
		workerLoss  = flag.Duration("worker-timeout", 15*time.Second, "coordinator: re-lease a worker's shards after contact failures persist this long")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log format: text or json")
		debugAddr   = flag.String("debug-addr", "", "private debug listener with net/http/pprof and /metrics (empty = off)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cliffedged:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	startDebug(logger, *debugAddr)

	if *coordinator {
		runCoordinator(logger, *addr, *storeDir, *workers, *shards, *perWorker, *workerLoss)
		return
	}

	pool := 0
	if *workers != "" {
		n, err := strconv.Atoi(*workers)
		if err != nil {
			fatal(logger, "-workers must be a pool size in worker mode (worker URLs need -coordinator)", "err", err)
		}
		pool = n
	}
	var copts []cliffedge.Option
	if *liveTick > 0 {
		copts = append(copts, cliffedge.WithLiveTick(*liveTick))
	}

	srv, err := serve.NewServer(*storeDir, serve.Config{
		Workers:        pool,
		MaxPerClient:   *maxClient,
		ClusterOptions: copts,
		PersistTraces:  *traces,
		Logger:         logger.With("component", "serve"),
	})
	if err != nil {
		fatal(logger, "cannot start server", "err", err)
	}
	_, health := srv.Health()
	logger.Info("listening", "addr", *addr, "store", *storeDir, "workers", health["workers"])
	serveHTTP(logger, *addr, srv.Handler(), srv.Shutdown)
}

// fatal logs at error level and exits non-zero — the slog analogue of
// log.Fatal.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

// startDebug opens the opt-in private listener: the standard pprof
// endpoints plus a /metrics mirror, so profiling and scraping never have
// to ride the public API listener.
func startDebug(logger *slog.Logger, addr string) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /metrics", obs.Handler())
	go func() {
		logger.Info("debug listener", "addr", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			logger.Error("debug listener failed", "err", err)
		}
	}()
}

// runCoordinator is the -coordinator main: shard fleets across the worker
// URLs, serve the campaign API under /api/v1/fleets.
func runCoordinator(logger *slog.Logger, addr, storeDir, workerList string, shards, perWorker int, workerTimeout time.Duration) {
	var urls []string
	for _, u := range strings.Split(workerList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fatal(logger, "-coordinator needs -workers with at least one worker base URL")
	}
	co, err := fleet.NewCoordinator(storeDir, fleet.Config{
		Workers:       urls,
		Shards:        shards,
		PerWorker:     perWorker,
		WorkerTimeout: workerTimeout,
		Logger:        logger.With("component", "fleet"),
	})
	if err != nil {
		fatal(logger, "cannot start coordinator", "err", err)
	}
	logger.Info("coordinating", "workers", len(urls), "addr", addr, "store", storeDir)
	serveHTTP(logger, addr, fleet.NewServer(co).Handler(), co.Shutdown)
}

// serveHTTP runs the HTTP server until SIGINT/SIGTERM, then stops
// accepting requests and shuts the core down. In-flight work aborts and
// unfinished sweeps/fleets keep their "running" manifests, so the next
// start resumes them.
func serveHTTP(logger *slog.Logger, addr string, handler http.Handler, shutdown func()) {
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("shutting down")
	case err := <-errCh:
		logger.Error("http server failed", "err", err)
		shutdown()
		os.Exit(1)
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown failed", "err", err)
	}
	shutdown()
	logger.Info("stopped")
}
