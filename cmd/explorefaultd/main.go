// explorefaultd is the campaign daemon: a long-running HTTP/JSON job
// server that accepts discovery, assessment and sweep jobs, schedules
// them FIFO across a worker pool under per-tenant quotas, and streams
// each job's run events over SSE. Job state is durable — killing the
// daemon mid-job and restarting it on the same data directory resumes
// in-flight jobs from their engine checkpoints, and a resumed job's
// outcome is bit-identical to an uninterrupted run.
//
// Examples:
//
//	go run ./cmd/explorefaultd -data /var/lib/explorefault
//	curl -s localhost:8750/jobs -d '{"type":"discover","config":{"cipher":"gift64","round":25,"episodes":500}}'
//	curl -s localhost:8750/jobs/j-000000
//	curl -N localhost:8750/jobs/j-000000/events
//	curl -s localhost:8750/jobs/j-000000/report      # obsreport markdown for one job
//	curl -s localhost:8750/stats                     # per-tenant cost aggregates
//	curl -s localhost:8750/metrics?format=prom       # labeled Prometheus scrape
//	curl -s localhost:8750/readyz                    # 200 accepting, 503 draining
//
// The daemon's /metrics endpoint serves the fleet view: scheduler
// instruments plus every job's metrics folded under
// tenant/kind/cipher/fault_model labels, with process runtime telemetry
// (goroutines, heap, GC pauses) sampled at scrape time. Each finished
// job carries a usage record (wall/CPU/queue seconds, work counters,
// peak heap); obsreport -fleet folds the per-job event logs in the data
// directory into one fleet cost report offline.
//
// See README's "Serving campaigns" for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	explorefault "repro"
)

// Request header limits: a client has readHeaderTimeout to send its
// request line and headers, and at most maxHeaderBytes of them, so a
// slow or oversized header cannot hold a connection open. ReadTimeout
// and WriteTimeout stay unset: an SSE event stream is one long-lived
// response, which a whole-request deadline would cut off mid-job.
// readHeaderTimeout is a variable so tests can shorten it.
var readHeaderTimeout = 5 * time.Second

const maxHeaderBytes = 64 << 10

func main() {
	// First SIGINT/SIGTERM starts a graceful shutdown: in-flight jobs
	// stop at their next engine boundary with checkpoints written, and
	// their records stay resumable. A second signal force-kills.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "explorefaultd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body: it binds the listener, serves the job
// API until ctx is cancelled, then drains gracefully.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("explorefaultd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "localhost:8750", "listen address for the job API")
	dataDir := fs.String("data", "", "state directory: durable job table, per-job checkpoints, event logs and artifacts (required)")
	workers := fs.Int("workers", 2, "job worker-pool size (each job's own campaign parallelism is set in its config)")
	tenantQuota := fs.Int("tenant-quota", 0, "max concurrently running jobs per tenant (0 = worker count)")
	eventsPath := fs.String("events", "", "write daemon-level JSONL lifecycle events to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return errors.New("-data is required (the daemon state directory)")
	}

	metrics := explorefault.NewMetrics()
	// A daemon always serves /metrics, so process health telemetry is on;
	// it samples at scrape time only, so an unscrapped daemon pays nothing.
	metrics.EnableRuntimeMetrics()
	var events *explorefault.EventEmitter
	if *eventsPath != "" {
		var err error
		if events, err = explorefault.OpenEventLog(*eventsPath); err != nil {
			return err
		}
		defer events.Close()
	}

	srv, err := explorefault.NewJobServer(explorefault.JobServerConfig{
		DataDir:     *dataDir,
		Workers:     *workers,
		TenantQuota: *tenantQuota,
		Metrics:     metrics,
		Events:      events,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	fmt.Fprintf(stdout, "explorefaultd listening on http://%s (data %s, %d workers)\n",
		ln.Addr(), *dataDir, *workers)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "explorefaultd: shutting down (jobs checkpoint and stay resumable)")
	// Stop accepting connections, give in-flight requests a moment (SSE
	// streams won't finish on their own — Close cuts them), then settle
	// the job server so every interrupted job has its checkpoint written.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	httpSrv.Close()
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "explorefaultd: stopped")
	return nil
}
