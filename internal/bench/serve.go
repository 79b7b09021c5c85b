package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skysql"
	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/datagen"
	"skysql/internal/server"
)

// mixShapes is the repeated-query-shape list of the zipfian session
// workload, shared between the cache experiment (engine-level replay) and
// the serve experiment (the same mix fired at a skysqld server over
// HTTP). Zipfian rank selection over this list models a session firing
// the same few shapes over and over.
var mixShapes = []string{
	"SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t WHERE d1 < 0.8 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t WHERE d1 < 0.6 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t WHERE d1 < 0.4 SKYLINE OF COMPLETE d1 MIN, d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t SKYLINE OF COMPLETE d1 MIN, d2 MIN",
	"SELECT * FROM t SKYLINE OF COMPLETE d2 MIN, d3 MIN, d4 MIN",
	"SELECT * FROM t WHERE d2 < 0.5 SKYLINE OF COMPLETE d1 MIN, d2 MIN",
	"SELECT * FROM t SKYLINE OF COMPLETE d3 MIN, d4 MIN",
}

// queryOutcome is one POST /query round trip, as the load generator saw
// it.
type queryOutcome struct {
	status  int
	resp    server.QueryResponse
	errResp server.ErrorResponse
	latency time.Duration
}

// postQuery fires one POST /query (timeoutMS > 0 sets the request's
// timeout_ms) and decodes whichever body came back.
func postQuery(c *http.Client, base, sql string, timeoutMS int64) (queryOutcome, error) {
	body, err := json.Marshal(server.QueryRequest{SQL: sql, TimeoutMillis: timeoutMS})
	if err != nil {
		return queryOutcome{}, err
	}
	start := time.Now()
	resp, err := c.Post(base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return queryOutcome{}, err
	}
	defer resp.Body.Close()
	out := queryOutcome{status: resp.StatusCode}
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		err = dec.Decode(&out.resp)
	} else {
		err = dec.Decode(&out.errResp)
	}
	out.latency = time.Since(start)
	if err != nil {
		return queryOutcome{}, fmt.Errorf("decoding /query response (HTTP %d): %w", resp.StatusCode, err)
	}
	return out, nil
}

// fetchStats reads GET /stats.
func fetchStats(c *http.Client, base string) (server.Stats, error) {
	resp, err := c.Get(base + "/stats")
	if err != nil {
		return server.Stats{}, err
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return server.Stats{}, err
	}
	return st, nil
}

// renderResultRows canonicalizes a query response's row set for
// bit-identity comparison.
func renderResultRows(rows [][]interface{}) string {
	b, _ := json.Marshal(rows)
	return string(b)
}

// percentileMS returns the q-quantile (ceil convention) of the latency
// sample, in milliseconds.
func percentileMS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s))*q+0.9999999) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx]) / float64(time.Millisecond)
}

// runServe is the concurrent-serving evaluation behind BENCH_PR10.json:
// skysqld's HTTP layer (internal/server over one shared session) under an
// open-loop load generator, in three sections:
//
//	sweep       client-count sweep (2/4/8 clients) firing the zipfian
//	            shape mix at a paced aggregate rate against one server
//	            with a shared result cache. The shapes are warmed
//	            serially first, so every load request must be a cache
//	            hit, bit-identical to the serial answer; hit/miss totals
//	            and the zipf-summed row count are deterministic and
//	            benchdiff-gated. Latency percentiles and achieved RPS
//	            are wall-clock, informational.
//	admission   one execution slot, no queue: a blocker too heavy to
//	            finish inside its own timeout occupies the slot while
//	            sequential probes arrive — each must bounce with HTTP
//	            429, so the rejection counter is exact (benchdiff-gated).
//	governor    the global memory pool: a query's unbudgeted peak is
//	            measured first, then the same query runs under a global
//	            budget of exactly that peak, forcing the shared
//	            degradation ladder (drop sidecars) to engage while the
//	            answer stays bit-identical.
//
// Unlike every other experiment, these queries execute in real time (the
// server is a real HTTP listener), so wall-clock figures vary run to run;
// only the counters above are gated.
func runServe(cfg Config, w io.Writer) error {
	const dims = 4
	const executors = 8
	spec := func(tuples int, variant string, clients int, rps float64) Spec {
		return Spec{Dataset: "synthetic_anti-correlated", Complete: true,
			Dimensions: dims, Tuples: tuples, Executors: executors,
			Algorithm: core.Algorithm{Name: "server"}, Variant: variant,
			Clients: clients, TargetRPS: rps}
	}
	emit := func(m Measurement) {
		if cfg.Observer != nil {
			cfg.Observer(m)
		}
	}

	// ---- Section 1: client-count sweep over the zipfian mix ----
	nMix := cfg.scaled(5000)
	const perClient = 25
	fmt.Fprintf(w, "serve | zipfian mix sweep | algorithm=server tuples=%d shapes=%d requests/client=%d s=1.2\n",
		nMix, len(mixShapes), perClient)
	fmt.Fprintf(w, "%-10s%10s%12s%12s%12s%12s%8s%8s%12s\n",
		"clients", "reqs", "rps target", "rps ach.", "p50 [ms]", "p95 [ms]", "p99", "hits", "total rows")
	for _, clients := range []int{2, 4, 8} {
		sess := skysql.NewSession(skysql.WithExecutors(executors), skysql.WithResultCache(0))
		sess.RegisterTable(datagen.Synthetic(datagen.AntiCorrelated, nMix, dims,
			datagen.Config{Seed: cfg.Seed, Complete: true}))
		ts := httptest.NewServer(server.New(sess))
		client := ts.Client()

		// Warm every shape serially: 8 deterministic misses populate the
		// cache, and the serial answers become the bit-identity reference
		// for everything the concurrent burst returns.
		warm := make([]string, len(mixShapes))
		for i, q := range mixShapes {
			out, err := postQuery(client, ts.URL, q, 0)
			if err != nil {
				ts.Close()
				sess.Close()
				return fmt.Errorf("serve sweep warm shape %d: %w", i, err)
			}
			if out.status != http.StatusOK {
				ts.Close()
				sess.Close()
				return fmt.Errorf("serve sweep warm shape %d: HTTP %d (%s)", i, out.status, out.errResp.Error)
			}
			warm[i] = renderResultRows(out.resp.Rows)
		}

		// Open-loop burst: every request is scheduled at an absolute time
		// on a fixed aggregate-rate grid (clients × 25 req/s) and fired
		// from its own goroutine — arrival times never depend on
		// completion times, the defining property of open-loop load. The
		// shape sequence is one shared zipf draw per request index, so
		// hit and row totals are pure functions of the seed.
		total := clients * perClient
		rps := 25.0 * float64(clients)
		interval := time.Duration(float64(time.Second) / rps)
		z := datagen.NewZipf(cfg.Seed, 1.2, len(mixShapes))
		seq := make([]int, total)
		for i := range seq {
			seq[i] = z.Next()
		}
		latencies := make([]time.Duration, total)
		var rowsTotal, mismatches, failures atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < total; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
				out, err := postQuery(client, ts.URL, mixShapes[seq[i]], 0)
				if err != nil || out.status != http.StatusOK {
					failures.Add(1)
					return
				}
				latencies[i] = out.latency
				rowsTotal.Add(int64(out.resp.RowCount))
				if renderResultRows(out.resp.Rows) != warm[seq[i]] {
					mismatches.Add(1)
				}
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		stats := sess.ResultCacheStats()
		ts.Close()
		sess.Close()

		if n := failures.Load(); n > 0 {
			fmt.Fprintf(w, "WARNING: %d of %d burst requests failed\n", n, total)
		}
		if n := mismatches.Load(); n > 0 {
			fmt.Fprintf(w, "WARNING: %d concurrent responses differ from the serial warm answer\n", n)
		}
		if stats.Hits != int64(total) || stats.Misses != int64(len(mixShapes)) {
			fmt.Fprintf(w, "WARNING: cache counters off: hits=%d (want %d) misses=%d (want %d)\n",
				stats.Hits, total, stats.Misses, len(mixShapes))
		}
		m := Measurement{
			Spec: spec(nMix, fmt.Sprintf("sweep,zipfian-mix,s=1.2,reqs=%d", total),
				clients, rps),
			Duration:       elapsed,
			RequestsIssued: int64(total),
			Counts: cluster.Counts{
				cluster.CacheHits:      stats.Hits,
				cluster.CacheMisses:    stats.Misses,
				cluster.CacheEvictions: stats.Evictions,
			},
			LatencyP50MS: percentileMS(latencies, 0.50),
			LatencyP95MS: percentileMS(latencies, 0.95),
			LatencyP99MS: percentileMS(latencies, 0.99),
			AchievedRPS:  float64(total) / elapsed.Seconds(),
			ResultRows:   int(rowsTotal.Load()),
		}
		emit(m)
		fmt.Fprintf(w, "%-10d%10d%12.0f%12.1f%12.2f%12.2f%8.2f%8d%12d\n",
			clients, total, rps, m.AchievedRPS, m.LatencyP50MS, m.LatencyP95MS,
			m.LatencyP99MS, stats.Hits, m.ResultRows)
	}
	fmt.Fprintln(w)

	// ---- Section 2: admission control (queue-or-429) ----
	if err := runServeAdmission(cfg, w, spec, emit); err != nil {
		return err
	}

	// ---- Section 3: shared memory governor under global pressure ----
	return runServeGovernor(cfg, w, spec, emit)
}

// runServeAdmission measures the queue-or-429 path: one execution slot,
// zero queue depth. A deliberately over-heavy blocker query — a complete
// anti-correlated skyline far too large to finish inside its own 1s
// timeout_ms — occupies the slot while six sequential probes arrive; the
// admission controller must bounce every probe with HTTP 429 and the
// blocker itself ends in a deterministic 504. The probes run against a
// separate 64-row table, so each probe round trip is milliseconds: the
// whole probe train fits inside the 1s slot hold with orders of
// magnitude to spare, making the gated counters (requests, admitted=1,
// rejected=6, result_rows=0) machine-independent without calibration.
func runServeAdmission(cfg Config, w io.Writer, spec func(int, string, int, float64) Spec, emit func(Measurement)) error {
	const dims = 4
	const probes = 6
	const blockerTimeoutMS = 1000
	blockerSQL := mixShapes[0]
	probeSQL := "SELECT * FROM probe SKYLINE OF COMPLETE d1 MIN, d2 MIN"
	// The blocker table deliberately ignores cfg.Scale: the section's
	// determinism needs the blocker's runtime to dwarf its 1s timeout, and
	// a scaled-down table would finish before the stats poll could even
	// observe it holding the slot.
	n := 50000
	sess := skysql.NewSession(skysql.WithExecutors(2),
		skysql.WithMaxConcurrentQueries(1))
	defer sess.Close()
	sess.RegisterTable(datagen.Synthetic(datagen.AntiCorrelated, n, dims,
		datagen.Config{Seed: cfg.Seed, Complete: true}))
	probeTab := datagen.Synthetic(datagen.Independent, 64, 2, datagen.Config{Seed: cfg.Seed, Complete: true})
	probeTab.Name = "probe"
	sess.RegisterTable(probeTab)
	ts := httptest.NewServer(server.New(sess))
	defer ts.Close()
	client := ts.Client()

	// Launch the blocker, wait until /stats shows it holding the slot,
	// then probe.
	type done struct {
		out queryOutcome
		err error
	}
	blocked := make(chan done, 1)
	go func() {
		out, err := postQuery(client, ts.URL, blockerSQL, blockerTimeoutMS)
		blocked <- done{out, err}
	}()
	deadline := time.Now().Add(cfg.Timeout)
	for {
		st, err := fetchStats(client, ts.URL)
		if err != nil {
			return fmt.Errorf("serve admission stats: %w", err)
		}
		if st.Admission.InFlight >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve admission: blocker never acquired the slot")
		}
		time.Sleep(time.Millisecond)
	}
	latencies := make([]time.Duration, 0, probes)
	rejected429 := 0
	for i := 0; i < probes; i++ {
		out, err := postQuery(client, ts.URL, probeSQL, 0)
		if err != nil {
			return fmt.Errorf("serve admission probe %d: %w", i, err)
		}
		latencies = append(latencies, out.latency)
		if out.status == http.StatusTooManyRequests && out.errResp.Code == "admission_rejected" {
			rejected429++
		}
	}
	b := <-blocked
	if b.err != nil {
		return fmt.Errorf("serve admission blocker: %w", b.err)
	}
	if b.out.status != http.StatusGatewayTimeout {
		fmt.Fprintf(w, "WARNING: blocker ended with HTTP %d (want 504 deadline)\n", b.out.status)
	}
	if rejected429 != probes {
		fmt.Fprintf(w, "WARNING: expected %d rejections with HTTP 429, observed %d\n", probes, rejected429)
	}
	ast := sess.AdmissionStats()
	m := Measurement{
		Spec: spec(n, fmt.Sprintf("admission,max=1,queue=0,probes=%d", probes),
			1, 0),
		Duration:          time.Duration(blockerTimeoutMS) * time.Millisecond,
		RequestsIssued:    probes + 1,
		AdmissionAdmitted: ast.Admitted,
		AdmissionQueued:   ast.Queued,
		AdmissionRejected: ast.Rejected,
		LatencyP50MS:      percentileMS(latencies, 0.50),
		LatencyP95MS:      percentileMS(latencies, 0.95),
		LatencyP99MS:      percentileMS(latencies, 0.99),
	}
	emit(m)
	fmt.Fprintf(w, "serve | admission | tuples=%d max-concurrent=1 queue-depth=0 blocker timeout=%dms\n",
		n, blockerTimeoutMS)
	fmt.Fprintf(w, "%-10s%10s%12s%12s%12s\n", "", "probes", "rejected", "admitted", "p50 [ms]")
	fmt.Fprintf(w, "%-10s%10d%12d%12d%12.2f\n\n", "slot held", probes, rejected429,
		ast.Admitted, m.LatencyP50MS)
	return nil
}

func runServeGovernor(cfg Config, w io.Writer, spec func(int, string, int, float64) Spec, emit func(Measurement)) error {
	const dims = 4
	// Like the admission blocker, the governed table ignores cfg.Scale: the
	// ladder only engages when a cooperative checkpoint observes the pool
	// past its soft thresholds, and a tiny table finishes between
	// checkpoints without ever being seen under pressure.
	nGov := 20000
	govSQL := mixShapes[0]
	// Serial execution (one executor: a one-worker pool, so morsels stay
	// off) makes the allocation trajectory — and therefore the checkpoint
	// at which the ladder engages — deterministic.
	newGovSession := func(budget int64) (*skysql.Session, *httptest.Server) {
		sess := skysql.NewSession(skysql.WithExecutors(1),
			skysql.WithGlobalMemoryBudget(budget))
		sess.RegisterTable(datagen.Synthetic(datagen.AntiCorrelated, nGov, dims,
			datagen.Config{Seed: cfg.Seed, Complete: true}))
		return sess, httptest.NewServer(server.New(sess))
	}

	// Reference run against a metering-only pool: measures the query's
	// unbudgeted peak and pins the bit-identity reference.
	refSess, refTS := newGovSession(0)
	ref, err := postQuery(refTS.Client(), refTS.URL, govSQL, 0)
	refTS.Close()
	refSess.Close()
	if err != nil {
		return fmt.Errorf("serve governor reference: %w", err)
	}
	if ref.status != http.StatusOK {
		return fmt.Errorf("serve governor reference: HTTP %d (%s)", ref.status, ref.errResp.Error)
	}
	peak := ref.resp.Metrics.PeakBytes
	if peak <= 0 {
		return fmt.Errorf("serve governor: reference run reported peak_bytes=%d", peak)
	}

	// Budgeted run: a global budget of exactly the unbudgeted peak. The
	// cooperative checkpoints observe live bytes past the drop-sidecars
	// rung (60% of budget) but the pool can never exceed the budget
	// itself (the degraded trajectory only shrinks), so the ladder
	// engages and the query still succeeds, bit-identical. peak_bytes is
	// a pure function of (data, plan) under serial execution, so the
	// derived budget — and the step count — is machine-independent.
	budget := peak
	govSess, govTS := newGovSession(budget)
	gov, err := postQuery(govTS.Client(), govTS.URL, govSQL, 0)
	if err != nil {
		govTS.Close()
		govSess.Close()
		return fmt.Errorf("serve governor budgeted: %w", err)
	}
	if gov.status != http.StatusOK {
		govTS.Close()
		govSess.Close()
		return fmt.Errorf("serve governor budgeted: HTTP %d (%s)", gov.status, gov.errResp.Error)
	}
	gst := govSess.GovernorStats()
	govTS.Close()
	govSess.Close()

	if renderResultRows(gov.resp.Rows) != renderResultRows(ref.resp.Rows) {
		fmt.Fprintln(w, "WARNING: degraded result differs from unbudgeted result")
	}
	if gov.resp.Metrics.DegradationSteps == 0 {
		fmt.Fprintln(w, "WARNING: global budget at the unbudgeted peak never engaged the degradation ladder")
	}
	m := Measurement{
		Spec:           spec(nGov, "governor,global-budget=peak", 1, 0),
		Duration:       time.Duration(gov.resp.DurationMS * float64(time.Millisecond)),
		RequestsIssued: 1,
		Counts: cluster.Counts{
			cluster.DegradationSteps: gov.resp.Metrics.DegradationSteps,
			cluster.PeakBytes:        gov.resp.Metrics.PeakBytes,
		},
		DegradationLog: gov.resp.Metrics.Degradations,
		ResultRows:     gov.resp.RowCount,
	}
	emit(m)
	fmt.Fprintf(w, "serve | governor | tuples=%d unbudgeted peak=%d budget=%d (100%%)\n", nGov, peak, budget)
	fmt.Fprintf(w, "%-10s%12s%14s%14s%12s\n", "", "steps", "escalations", "peak bytes", "rows")
	fmt.Fprintf(w, "%-10s%12d%14d%14d%12d\n\n", "budgeted",
		m.Counts[cluster.DegradationSteps], gst.Escalations, m.Counts[cluster.PeakBytes], m.ResultRows)
	return nil
}
