// Command skysqld is the skyline query server: a long-lived HTTP/JSON
// daemon over one shared skysql session. Every in-flight request shares
// the session's catalog, work-stealing worker pool, result cache,
// admission controller, and global memory governor.
//
// Usage:
//
//	skysqld -addr :8080 -table hotels=hotels.csv:int,float,int
//	skysqld -addr :8080 -synthetic 100000x4 -cache-mb 64 -max-concurrent 8 -queue-depth 16
//
// Endpoints: POST /query, POST /tables, POST /append, POST /drop,
// GET /stats, GET /healthz. The full HTTP API reference — request and
// response JSON schemas, error codes, the 429 admission semantics, and
// the /stats field glossary — lives in docs/skysqld.md.
//
// The serving policy maps one-to-one onto session options:
// -max-concurrent/-queue-depth onto WithMaxConcurrentQueries and
// WithAdmissionQueue (queries beyond both bounds are rejected with HTTP
// 429), -global-budget-mb onto WithGlobalMemoryBudget (concurrent
// queries degrade together — spill, drop sidecars, collapse fan-out —
// before any one of them fails), -budget-mb onto the per-query
// WithMemoryBudget ladder, and -cache-mb onto WithResultCache, shared
// across all clients.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"skysql"
	"skysql/internal/datagen"
	"skysql/internal/server"
)

// Connection limits of the HTTP server. A client gets readHeaderTimeout
// to deliver its request headers and may hold an idle keep-alive
// connection for idleTimeout, so a slow or stalled client cannot pin a
// connection forever. Request bodies and responses are deliberately not
// time-bounded (ReadTimeout and WriteTimeout stay unset): /tables uploads
// run up to 64 MiB and queries may run long; -timeout bounds those.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

// newHTTPServer builds the server for addr with the connection limits
// above, taking the header timeout as a parameter so a test can shorten it.
func newHTTPServer(addr string, h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

type tableFlag []string

func (t *tableFlag) String() string     { return strings.Join(*t, ",") }
func (t *tableFlag) Set(v string) error { *t = append(*t, v); return nil }

func main() {
	var (
		tables         tableFlag
		addr           = flag.String("addr", ":8080", "listen address")
		executors      = flag.Int("executors", 4, "executor count (parallelism budget per query)")
		maxConcurrent  = flag.Int("max-concurrent", 0, "max queries executing at once (0 = unbounded)")
		queueDepth     = flag.Int("queue-depth", 0, "admission queue slots behind -max-concurrent (0 = reject immediately with 429)")
		globalBudgetMB = flag.Int64("global-budget-mb", 0, "global memory budget across all in-flight queries, MiB (0 = metering only)")
		budgetMB       = flag.Int64("budget-mb", 0, "per-query memory budget, MiB (0 = off)")
		cacheMB        = flag.Int64("cache-mb", 64, "skyline result-cache budget, MiB (0 = off)")
		spillDir       = flag.String("spill-dir", "", "directory for memory-governor spill segments (empty = spill tier off)")
		timeout        = flag.Duration("timeout", 0, "per-query wall-clock timeout (0 = none)")
		synthetic      = flag.String("synthetic", "", "register an anti-correlated synthetic table t, as ROWSxDIMS (e.g. 100000x4)")
		seed           = flag.Int64("seed", 1, "seed for -synthetic data")
	)
	flag.Var(&tables, "table", "name=file.csv:kind,kind,... (repeatable)")
	flag.Parse()

	opts := []skysql.Option{
		skysql.WithExecutors(*executors),
		// Always governed: a budget of 0 is metering-only, so /stats can
		// report live bytes and in-flight queries either way.
		skysql.WithGlobalMemoryBudget(*globalBudgetMB << 20),
	}
	if *maxConcurrent > 0 {
		opts = append(opts, skysql.WithMaxConcurrentQueries(*maxConcurrent),
			skysql.WithAdmissionQueue(*queueDepth))
	}
	if *budgetMB > 0 {
		opts = append(opts, skysql.WithMemoryBudget(*budgetMB<<20))
	}
	if *cacheMB > 0 {
		opts = append(opts, skysql.WithResultCache(*cacheMB<<20))
	}
	if *spillDir != "" {
		opts = append(opts, skysql.WithSpillDirectory(*spillDir))
	}
	if *timeout > 0 {
		opts = append(opts, skysql.WithQueryTimeout(*timeout))
	}
	sess := skysql.NewSession(opts...)
	defer sess.Close()

	for _, spec := range tables {
		if err := loadTable(sess, spec); err != nil {
			fmt.Fprintln(os.Stderr, "skysqld:", err)
			os.Exit(1)
		}
	}
	if *synthetic != "" {
		rows, dims, err := parseSynthetic(*synthetic)
		if err != nil {
			fmt.Fprintln(os.Stderr, "skysqld:", err)
			os.Exit(1)
		}
		sess.RegisterTable(datagen.Synthetic(datagen.AntiCorrelated, rows, dims,
			datagen.Config{Seed: *seed, Complete: true}))
		fmt.Printf("skysqld: registered synthetic table t (%d rows, %d dims, anti-correlated)\n", rows, dims)
	}

	srv := newHTTPServer(*addr, server.New(sess), readHeaderTimeout)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("skysqld: listening on %s (executors=%d, pool=%d)\n", *addr, sess.Executors(), sess.PoolSize())

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "skysqld:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Graceful drain: stop accepting, let in-flight queries finish
		// (bounded), then exit.
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintln(os.Stderr, "skysqld: shutdown:", err)
		}
		fmt.Println("skysqld: drained, exiting")
	}
}

// parseSynthetic parses ROWSxDIMS.
func parseSynthetic(s string) (rows, dims int, err error) {
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%d", &rows, &dims); err != nil {
		return 0, 0, fmt.Errorf("invalid -synthetic %q; want ROWSxDIMS (e.g. 100000x4)", s)
	}
	if rows < 1 || dims < 2 {
		return 0, 0, fmt.Errorf("invalid -synthetic %q: need rows >= 1, dims >= 2", s)
	}
	return rows, dims, nil
}

// loadTable parses name=file.csv:kind,... and loads the CSV (same syntax
// as the skysql shell's -table flag).
func loadTable(sess *skysql.Session, spec string) error {
	eq := strings.IndexByte(spec, '=')
	colon := strings.LastIndexByte(spec, ':')
	if eq < 0 || colon < eq {
		return fmt.Errorf("invalid -table %q; want name=file.csv:kind,...", spec)
	}
	name, path, kindList := spec[:eq], spec[eq+1:colon], spec[colon+1:]
	var kinds []skysql.Kind
	for _, k := range strings.Split(kindList, ",") {
		switch strings.TrimSpace(k) {
		case "int":
			kinds = append(kinds, skysql.KindInt)
		case "float":
			kinds = append(kinds, skysql.KindFloat)
		case "string":
			kinds = append(kinds, skysql.KindString)
		case "bool":
			kinds = append(kinds, skysql.KindBool)
		default:
			return fmt.Errorf("unknown column kind %q", k)
		}
	}
	return sess.LoadCSV(name, path, kinds)
}
