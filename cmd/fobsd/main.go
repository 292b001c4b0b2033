// Command fobsd is the transfer-orchestration daemon: it accepts transfer
// tasks over a local HTTP API, runs them through a bounded pool of
// supervised senders with per-tenant fairness and rate caps, and persists
// every task state transition so a daemon killed mid-flight — even with
// SIGKILL — resumes its queued and in-flight work on the next start,
// continuing interrupted transfers from the receiver's retained state.
//
// Usage:
//
//	fobsd -dir /var/lib/fobsd                        # API on 127.0.0.1:7780
//	fobsd -dir state -listen 127.0.0.1:9000 -workers 4
//	fobsd -dir state -tenant-rate web=50e6 -tenant-rate batch=200e6
//
// Talk to it with curl:
//
//	curl -X POST localhost:7780/tasks -d '{"addr":"recv:7700","path":"/data/obj"}'
//	curl localhost:7780/tasks              # list
//	curl localhost:7780/tasks/1            # one task
//	curl -X DELETE localhost:7780/tasks/1  # cancel
//	curl localhost:7780/debug/fobs         # metrics snapshot + task gauges
//
// SIGINT/SIGTERM shut down gracefully: in-flight sends are cancelled and
// their tasks stay "running" in the state directory, so the next start
// requeues and resumes them. A SIGKILL gets the same recovery — that is
// the point of the store.
//
// Observability: the daemon logs structured records (text by default,
// -log-format json for collectors) keyed by task, transfer and trace
// ids, and -span-log appends every mover's phase events to a JSONL span
// log that fobs-analyze can join with receiver-side logs by trace id.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/hpcnet/fobs"
	"github.com/hpcnet/fobs/cmd/internal/cli"
)

// tenantRates collects repeated -tenant-rate name=bps flags.
type tenantRates map[string]float64

func (tr tenantRates) String() string {
	var parts []string
	for k, v := range tr {
		parts = append(parts, fmt.Sprintf("%s=%g", k, v))
	}
	return strings.Join(parts, ",")
}

func (tr tenantRates) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want tenant=bits-per-second, got %q", s)
	}
	bps, err := strconv.ParseFloat(val, 64)
	if err != nil || bps <= 0 {
		return fmt.Errorf("bad rate %q for tenant %s", val, name)
	}
	tr[name] = bps
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fobsd: %v\n", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's slog.Logger from the CLI flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func run() error {
	rates := make(tenantRates)
	var (
		listen  = flag.String("listen", "127.0.0.1:7780", "HTTP API address")
		dir     = flag.String("dir", "", "state directory for the crash-safe task journal, fobs-tasks.journal (required; one-file-per-task directories of earlier builds are migrated)")
		workers = flag.Int("workers", 2, "concurrent transfer tasks")
		pace    = flag.Duration("pace", 0, cli.PaceUsage)
		cc      = flag.String("cc", "",
			fmt.Sprintf("default congestion control policy (%s; tasks may override)",
				strings.Join(fobs.CongestionPolicies(), ", ")))
		retries = flag.Int("retries", 4,
			"supervised re-attempts per task before it is marked failed")
		retryBackoff = flag.Duration("retry-backoff", 250*time.Millisecond,
			"delay before a task's first retry, doubling each attempt")
		stallTimeout = flag.Duration("stall-timeout", 0,
			"abort an attempt when no acknowledgement arrives for this long (0: default 15s)")
		retention = flag.Duration("task-retention", 0,
			"delete terminal tasks older than this from the store and API (0: keep forever)")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		spanLog   = flag.String("span-log", "", "append mover phase events to this JSONL span log")
	)
	flag.Var(rates, "tenant-rate",
		"cap a tenant's aggregate send rate, as tenant=bits-per-second (repeatable)")
	flag.Parse()
	if *dir == "" {
		return errors.New("-dir is required")
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}

	var trace *fobs.TraceLog
	if *spanLog != "" {
		trace, err = fobs.CreateTraceLog(*spanLog)
		if err != nil {
			return err
		}
		defer trace.Close()
	}

	reg := fobs.NewMetrics()
	d, err := fobs.NewTaskDaemon(fobs.TaskDaemonConfig{
		Dir:        *dir,
		Workers:    *workers,
		TenantRate: rates,
		Retry:      &fobs.RetryPolicy{MaxRetries: *retries, Backoff: *retryBackoff},
		Retention:  *retention,
		Send: fobs.Options{
			Pace:         *pace,
			Congestion:   *cc,
			StallTimeout: *stallTimeout,
		},
		Metrics: reg,
		Trace:   trace,
		Logger:  logger,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: d.Handler()}
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("http server failed", "error", err)
		}
	}()
	logger.Info("daemon up", "dir", *dir, "api", "http://"+ln.Addr().String()+"/tasks",
		"workers", *workers, "span_log", *spanLog)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = d.Run(ctx)

	// The API goes down after the daemon: late status polls during
	// drain still answer.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	logger.Info("daemon drained; unfinished tasks resume on next start")
	return err
}
