// Cesweepd serves the sweep engine as a long-lived HTTP daemon: the
// figures, the frontier and single design-point runs, all backed by one
// content-addressed run cache and one trace pool.
//
// Usage:
//
//	cesweepd -addr :8080 -cache-dir /var/cache/ce/runs -trace-dir /var/cache/ce/traces
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/run \
//	    -d '{"config":"dependence","workload":"compress"}'
//	curl -s -X POST localhost:8080/run \
//	    -d '{"scheduler":{"kind":"fifos","clusters":2,"fifos_per_cluster":4,"depth":8},"workload":"li"}'
//	curl -s localhost:8080/figure/13
//	curl -s localhost:8080/frontier
//	curl -s localhost:8080/metrics
//
// Several daemons may share one -cache-dir/-trace-dir. Entries are
// content-addressed and land by temp-file-plus-rename, so sharing is
// correct without coordination: a design point requested on two daemons
// at once may be simulated by both, and the second write replaces the
// first with identical bytes. -cache-max bounds the warm in-memory tier;
// evicted results reload from the directory.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, lets
// in-flight simulations finish (up to -shutdown-timeout), writes a final
// metrics summary to stderr, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/canonjson"
	"repro/internal/server"
)

var (
	addr            = flag.String("addr", "localhost:8344", "listen address (host:port; :0 picks a free port)")
	cacheDir        = flag.String("cache-dir", "", "persist run results under this directory (shared across daemons)")
	traceDir        = flag.String("trace-dir", "", "persist execution traces under this directory (shared across daemons)")
	cacheMax        = flag.Int("cache-max", 4096, "max run results held in memory, LRU over the disk tier (0 = unbounded)")
	pprofAddr       = flag.String("pprof-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty = disabled. Never exposed on the serving port")
	segments        = flag.Int("segments", 0, "phase sampling: cut each trace into this many segments (0 = monolithic)")
	segPhases       = flag.Int("phases", 0, "phase sampling: time one representative segment per behavior cluster, at most this many (1..-segments)")
	shutdownTimeout = flag.Duration("shutdown-timeout", 2*time.Minute, "max time to drain in-flight requests on SIGINT/SIGTERM")
	quiet           = flag.Bool("quiet", false, "suppress per-request log lines")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cesweepd:", err)
		os.Exit(1)
	}
}

func run() error {
	eng := ce.NewEngine()
	if *cacheDir != "" {
		if err := eng.SetCacheDir(*cacheDir); err != nil {
			return err
		}
	}
	if *traceDir != "" {
		if err := eng.SetTraceDir(*traceDir); err != nil {
			return err
		}
	}
	eng.SetCacheLimit(*cacheMax)
	if err := eng.SetPhaseSampling(*segments, *segPhases); err != nil {
		return err
	}

	var opts server.Options
	if !*quiet {
		opts.Log = os.Stderr
	}
	srv := server.New(eng, opts)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Announce the resolved address (meaningful with -addr :0) on its own
	// stderr line so scripts and tests can scrape it.
	fmt.Fprintf(os.Stderr, "cesweepd: listening on http://%s\n", ln.Addr())

	// Opt-in profiling endpoint, always on its own listener with its own
	// mux: the serving port never exposes /debug/pprof/, however the
	// daemon is deployed, and the profiler can be bound to localhost while
	// the API listens publicly.
	if *pprofAddr != "" {
		if *pprofAddr == *addr {
			return fmt.Errorf("-pprof-addr %q must differ from the serving -addr", *pprofAddr)
		}
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof-addr: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "cesweepd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go func() { _ = (&http.Server{Handler: mux}).Serve(pln) }()
	}

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "cesweepd: %s, draining (timeout %s)\n", sig, *shutdownTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	summary, err := canonjson.Marshal(srv.MetricsSnapshot())
	if err == nil {
		fmt.Fprintf(os.Stderr, "cesweepd: final metrics\n%s", summary)
	}
	return nil
}
