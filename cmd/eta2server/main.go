// Command eta2server runs the ETA² crowdsourcing server as an HTTP service.
//
// Usage:
//
//	eta2server -addr :8080
//	eta2server -addr :8080 -semantic     # builtin embeddings for described tasks
//	eta2server -data-dir /var/lib/eta2   # durable: WAL + crash recovery
//	eta2server -data-dir d -fsync interval
//	eta2server -data-dir d -follow http://primary:8080   # read replica
//
// With -data-dir, every mutation is journaled to a write-ahead log and
// the full server state is recovered from the directory on the next
// start; a final snapshot is written on SIGTERM/SIGINT. Without it, all
// state lives in memory and dies with the process.
//
// With -follow, the process runs as a replication follower of the named
// primary: it serves the full read surface from continuously replicated
// state, answers writes with 503 + the primary's address, and becomes a
// writable primary on POST /v1/admin/promote (see DESIGN.md §12).
//
// Endpoints (JSON over HTTP, versioned under /v1):
//
//	POST /v1/users                 register users and their capacities
//	POST /v1/tasks                 create tasks (description or domain hint)
//	POST /v1/allocate/max-quality  allocate pending tasks to users
//	POST /v1/observations          submit collected values
//	POST /v1/step/close            run truth analysis, advance the clock
//	GET  /v1/truth?task=ID         latest estimate for a task
//	GET  /v1/expertise?user=&domain=
//	GET  /v1/healthz
//	GET  /v1/admin/durability      WAL segments/bytes, snapshot coverage
//	POST /v1/admin/compact         force a snapshot+truncate cycle
//	GET  /v1/admin/replication     role, LSN frontiers, replication lag
//	GET  /v1/admin/traces          flight recorder: completed write traces, slowest first
//	POST /v1/admin/promote         follower only: become a writable primary
//	GET  /v1/repl/log              primary only: ship committed WAL records
//	GET  /v1/repl/snapshot         primary only: snapshot bootstrap stream
//	GET  /metrics                  Prometheus text exposition (all subsystems)
//	GET  /debug/pprof/...          runtime profiles (opt-in via -pprof)
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"eta2"
	"eta2/internal/embedding"
	"eta2/internal/httpapi"
	"eta2/internal/obs"
	"eta2/internal/wal"
)

func main() {
	// Structured logs on stderr; request-scoped lines (internal/httpapi)
	// carry trace_id for sampled requests.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if err := run(); err != nil {
		slog.Error("eta2server exiting", "err", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		alpha      = flag.Float64("alpha", 0.5, "expertise decay factor")
		gamma      = flag.Float64("gamma", 0.5, "clustering termination parameter")
		semantic   = flag.Bool("semantic", false, "load the builtin skip-gram embeddings at startup (~4 ms on a 2.1 GHz Xeon, go1.24, commit 5bacae0) so tasks can be created from descriptions")
		modelPath  = flag.String("model", "", "embedding model file: loaded if it exists (~4 ms), the builtin model written to it if it does not, any other open error is fatal (implies -semantic)")
		dataDir    = flag.String("data-dir", "", "durable data directory (write-ahead log + snapshots); empty keeps all state in memory")
		fsyncMode  = flag.String("fsync", "always", "WAL fsync policy with -data-dir: always | interval | never")
		fsyncEvery = flag.Duration("fsync-interval", 100*time.Millisecond, "max time between WAL fsyncs with -fsync interval")
		follow     = flag.String("follow", "", "run as a read replica of the primary at this base URL (requires -data-dir)")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
		traceEvery = flag.Int("trace-sample", 64, "trace one write request in N (0 disables sampling; an X-Eta2-Trace request header always traces); completed traces at GET /v1/admin/traces")
		shutdownTO = flag.Duration("shutdown-timeout", 10*time.Second, "max time to drain in-flight requests on SIGTERM/SIGINT before the final snapshot")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Printf("eta2server %s %s\n", obs.Version(), runtime.Version())
		return nil
	}

	opts := []eta2.Option{eta2.WithAlpha(*alpha), eta2.WithGamma(*gamma)}
	if *semantic || *modelPath != "" {
		model, err := loadModel(*modelPath)
		if err != nil {
			return err
		}
		opts = append(opts, eta2.WithEmbedder(model))
	}
	policy := eta2.DurabilityPolicy{
		Fsync:      eta2.FsyncPolicy(*fsyncMode),
		FsyncEvery: *fsyncEvery,
	}

	// closer tears down the node on shutdown: Server.Close for a primary
	// (final snapshot + journal detach), Follower.Close for a replica
	// (stop the pull loop, final local snapshot).
	var api http.Handler
	var closer func() error
	switch {
	case *follow != "":
		if *dataDir == "" {
			return errors.New("-follow requires -data-dir for the local log copy")
		}
		follower, err := eta2.OpenFollower(*follow, eta2.FollowerOptions{
			DataDir: *dataDir,
			Policy:  policy,
		}, opts...)
		if err != nil {
			return err
		}
		follower.Server().Tracer().SetSampleEvery(*traceEvery)
		st := follower.Server().DurabilityStats()
		slog.Info("follower mode",
			"primary", *follow, "dir", *dataDir, "fsync", *fsyncMode,
			"resume_lsn", st.LastLSN, "snapshot_lsn", st.SnapshotLSN)
		api = httpapi.NewFollower(follower)
		closer = follower.Close
	case *dataDir != "":
		opts = append(opts, eta2.WithDurability(*dataDir, policy))
		server, err := eta2.NewServer(opts...)
		if err != nil {
			return err
		}
		server.Tracer().SetSampleEvery(*traceEvery)
		st := server.DurabilityStats()
		slog.Info("durable mode",
			"dir", *dataDir, "fsync", *fsyncMode,
			"recovered_lsn", st.LastLSN, "snapshot_lsn", st.SnapshotLSN)
		api = httpapi.New(server)
		closer = server.Close
	default:
		slog.Warn("no -data-dir set; all state is in memory and lost on exit")
		server, err := eta2.NewServer(opts...)
		if err != nil {
			return err
		}
		server.Tracer().SetSampleEvery(*traceEvery)
		api = httpapi.New(server)
		closer = server.Close
	}

	// The business API owns every path except the observability endpoints:
	// /metrics serves the process-wide registry, /debug/pprof/ is opt-in.
	obs.RegisterBuildInfo(obs.Default())
	mux := http.NewServeMux()
	mux.Handle("/", api)
	mux.Handle("/metrics", obs.Default().Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		slog.Info("pprof enabled at /debug/pprof/")
	}

	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := serve(ctx, httpServer, *shutdownTO); err != nil {
		return err
	}
	// HTTP is drained; write the final snapshot so the next start recovers
	// without replay. No-op for in-memory servers.
	if *dataDir != "" {
		slog.Info("writing final snapshot")
	}
	if err := closer(); err != nil {
		return fmt.Errorf("final snapshot: %w", err)
	}
	if *dataDir != "" {
		slog.Info("state saved", "dir", *dataDir)
	}
	return nil
}

// loadModel loads the embedding model from path when a file is there, and
// otherwise returns the builtin model, written to path when one is given:
// any other failure to open the file is returned, never answered by writing
// over a model that may be good. It logs the model's source and a digest of
// its Save bytes, so two nodes' logs say whether they run the same model.
func loadModel(path string) (*embedding.Model, error) {
	start := time.Now()
	source, fresh := path, false
	var model *embedding.Model
	f, err := os.Open(path)
	switch {
	case err == nil:
		defer f.Close()
		if model, err = embedding.Load(f); err != nil {
			return nil, fmt.Errorf("load model %s: %w", path, err)
		}
	case path != "" && !errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("load model: %w", err)
	default:
		if model, err = embedding.Builtin(); err != nil {
			return nil, err
		}
		source, fresh = "builtin", path != ""
	}
	took := time.Since(start)
	digest := sha256.New()
	if err := model.Save(digest); err != nil {
		return nil, err
	}
	slog.Info("embedding model", "source", source, "words", model.VocabSize(),
		"sha256", hex.EncodeToString(digest.Sum(nil))[:12], "took", took.Round(time.Microsecond))
	if fresh {
		if err := writeFileAtomic(path, model.Save); err != nil {
			return nil, fmt.Errorf("save model: %w", err)
		}
		slog.Info("saved embeddings", "path", path)
	}
	return model, nil
}

// syncDir is writeFileAtomic's directory sync; tests swap it to inject a
// failure.
var syncDir = wal.SyncDir

// writeFileAtomic makes what write produces the file at path by the
// sequence installSnapshot uses — temp file in the same directory, fsync,
// close, rename, directory fsync — so a process that opens path at any
// moment, or after a crash, finds no file or a whole one, and a failed write
// leaves the directory as it was. The temp name is unique: two nodes of one
// set-up may write one path at once, and either's file is the model.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		// CreateTemp's 0600 would hide the model from a node run as
		// another user.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	return syncDir(dir)
}

// serve runs the HTTP server until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests get up to timeout
// to drain, and only then does the caller write the final snapshot. A
// drain overrunning the deadline is logged and forced closed rather than
// failing the shutdown — the final snapshot must still be written.
func serve(ctx context.Context, httpServer *http.Server, timeout time.Duration) error {
	errCh := make(chan error, 1)
	go func() {
		slog.Info("listening", "addr", httpServer.Addr)
		errCh <- httpServer.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-ctx.Done():
		slog.Info("shutting down, draining in-flight requests", "timeout", timeout)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if err := httpServer.Shutdown(shutdownCtx); err != nil {
			slog.Warn("drain incomplete; closing remaining connections", "timeout", timeout, "err", err)
			if cerr := httpServer.Close(); cerr != nil {
				return fmt.Errorf("shutdown: %w", cerr)
			}
		}
		<-errCh // drain the ListenAndServe result
		return nil
	}
}
