package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"skysql"
	"skysql/internal/analyzer"
	"skysql/internal/catalog"
	"skysql/internal/optimizer"
	"skysql/internal/physical"
	"skysql/internal/plan"
	"skysql/internal/resultcache"
	"skysql/internal/server"
	"skysql/internal/sql"
)

// maxReplay caps the operations the traced run replays.
const maxReplay = 600

// span is one timed call, recorded by the benchmark around a layer's
// entry point. Spans of one operation share Op; Parent is the enclosing
// span's ID (-1 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// timed runs f inside a span and returns the span's duration.
func (tr *tracer) timed(name string, parent, op int, f func()) time.Duration {
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(time.Since(tr.t0))})
	f()
	tr.spans[id].End = int64(time.Since(tr.t0))
	return time.Duration(tr.spans[id].End - tr.spans[id].Start)
}

// replica is the in-process stand-in for one skysqld: a session built
// with skysqld's default options.
func replica() *skysql.Session {
	return skysql.NewSession(skysql.WithExecutors(4), skysql.WithGlobalMemoryBudget(0),
		skysql.WithResultCache(cacheMB<<20))
}

// traceRun replays the untraced run's operations in process. Each query
// goes through the compile layers (sql.Parse, plan.Build, Analyze,
// Optimize, physical.Plan) on a mirror catalog, through
// (*server.Server).ServeHTTP on one session, and through Session.SQL +
// DataFrame.CollectContext on a second, identically configured session
// that sees the same operation sequence, so both caches evolve alike.
// Appends go through ServeHTTP and Session.AppendRows.
func traceRun(w *workload, rep *report) (map[string]metric, []span, error) {
	hosted, direct := replica(), replica()
	defer hosted.Close()
	defer direct.Close()
	srv := server.New(hosted)
	cat := catalog.New()
	an, opt := analyzer.New(cat), optimizer.New()
	popts := physical.Options{ResultCache: resultcache.New(cacheMB << 20)}
	tr := &tracer{t0: time.Now()}

	for _, t := range w.tables {
		cols := sessionSchema(t)
		if code, body, _ := serveOp(tr, srv, -1, -1, "/tables", tableBody(t)); code != http.StatusOK {
			return nil, nil, fmt.Errorf("loading %s: HTTP %d %s", t.name, code, body)
		}
		if err := direct.CreateTable(t.name, cols, sessionRows(t.rows, t.cols)); err != nil {
			return nil, nil, err
		}
		mt, err := catalog.NewTable(t.name, cols, sessionRows(t.rows, t.cols))
		if err != nil {
			return nil, nil, err
		}
		cat.Register(mt)
	}
	for _, q := range w.warm {
		if code, body, _ := serveOp(tr, srv, -1, -1, "/query", (&op{kind: opQuery, q: q}).body()); code != http.StatusOK {
			return nil, nil, fmt.Errorf("warm-up %q: HTTP %d %s", q.sql, code, body)
		}
		if _, err := direct.Query(q.sql); err != nil {
			return nil, nil, fmt.Errorf("warm-up %q: %w", q.sql, err)
		}
	}

	ops := rep.timed
	if len(ops) > maxReplay {
		ops = ops[:maxReplay]
	}
	var before, after resultcache.Stats
	tr.timed("Session.ResultCacheStats", -1, -1, func() { before = direct.ResultCacheStats() })
	var (
		parse, build, analyze, optimize, physPlan []float64 // µs
		self, exec, stage, unattributed, peak     []float64 // ms, MiB
		appendMS                                  []float64
		bytesOut, rowsOut                         float64
		stages, morsels, steals, retries, par     float64
		comparisons, inputRows, batches, shuffled float64
		served, untraced, untracedQuery, durSum   float64
		nq                                        int
	)
	for i, s := range ops {
		o := s.op
		root := len(tr.spans)
		var err error
		tr.timed("op", -1, i, func() {
			if o.kind == opAppend {
				code, _, d := serveOp(tr, srv, root, i, "/append", o.body())
				if code != http.StatusOK {
					err = fmt.Errorf("append: HTTP %d", code)
					return
				}
				served += ms(d)
				untraced += ms(s.lat)
				rows := sessionRows(o.rows, nil)
				appendMS = append(appendMS, ms(tr.timed("Session.AppendRows", root, i, func() {
					err = direct.AppendRows(o.t.name, rows)
				})))
				if err == nil {
					var mt *catalog.Table
					if mt, err = cat.Lookup(o.t.name); err == nil {
						err = mt.Append(sessionRows(o.rows, nil)...)
					}
				}
				return
			}
			q := o.q
			var (
				stmt   *sql.SelectStmt
				lp, rp plan.Node
			)
			compile := tr.timed("sql.Parse", root, i, func() { stmt, err = sql.Parse(q.sql) })
			parse = append(parse, us(compile))
			if err != nil {
				return
			}
			d := tr.timed("plan.Build", root, i, func() { lp, err = plan.Build(stmt) })
			build, compile = append(build, us(d)), compile+d
			if err != nil {
				return
			}
			d = tr.timed("analyzer.Analyze", root, i, func() { rp, err = an.Analyze(lp) })
			analyze, compile = append(analyze, us(d)), compile+d
			if err != nil {
				return
			}
			d = tr.timed("optimizer.Optimize", root, i, func() { rp = opt.Optimize(rp) })
			optimize, compile = append(optimize, us(d)), compile+d
			d = tr.timed("physical.Plan", root, i, func() { _, err = physical.Plan(rp, popts) })
			physPlan, compile = append(physPlan, us(d)), compile+d
			if err != nil {
				return
			}

			code, body, d := serveOp(tr, srv, root, i, "/query", o.body())
			if code != http.StatusOK {
				err = fmt.Errorf("query %q: HTTP %d %s", q.sql, code, body)
				return
			}
			_, meta, _ := splitRows(body)
			durMS, nrows := jsonNumber(meta, `"duration_ms":`), int(jsonNumber(meta, `"row_count":`))
			self = append(self, ms(d)-durMS-ms(compile))
			bytesOut += float64(len(body))
			rowsOut += float64(nrows)
			served += ms(d)
			untraced += ms(s.lat)
			untracedQuery += ms(s.lat)
			durSum += s.durMS

			var df *skysql.DataFrame
			tr.timed("Session.SQL", root, i, func() { df, err = direct.SQL(q.sql) })
			if err != nil {
				return
			}
			var rows []skysql.Row
			e := tr.timed("DataFrame.CollectContext", root, i, func() { rows, err = df.CollectContext(context.Background()) })
			if err != nil {
				return
			}
			if nrows != s.rows || len(rows) != s.rows {
				err = fmt.Errorf("query %q: traced replay returned %d (server) and %d (session) rows, the untraced run %d",
					q.sql, nrows, len(rows), s.rows)
				return
			}
			m := df.Metrics()
			st := 0.0
			for _, t := range m.StageTimes() {
				st += ms(t.Elapsed)
			}
			exec = append(exec, ms(e))
			stage = append(stage, st)
			unattributed = append(unattributed, ms(e)-st)
			peak = append(peak, float64(m.PeakBytes())/(1<<20))
			stages += float64(m.StagesExecuted())
			morsels += float64(m.MorselsExecuted())
			steals += float64(m.Steals())
			retries += float64(m.TaskRetries())
			par += m.AchievedParallelism()
			comparisons += float64(m.Sky.Comparisons())
			batches += float64(m.BatchesDecoded())
			shuffled += float64(m.RowsShuffled())
			if mt, lerr := cat.Lookup(q.t.name); lerr == nil {
				inputRows += float64(len(mt.Snapshot()))
			}
			nq++
		})
		if err != nil {
			return nil, nil, fmt.Errorf("op %d: %w", i, err)
		}
	}
	tr.timed("Session.ResultCacheStats", -1, -1, func() { after = direct.ResultCacheStats() })

	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	perQuery := func(total float64) float64 { return total / float64(max(nq, 1)) }
	var outside []float64
	for _, s := range rep.timed {
		if s.op.kind == opQuery && s.ok() {
			outside = append(outside, ms(s.lat)-s.durMS)
		}
	}
	perRow := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layers := map[string]metric{
		"sql.parse_us":                {mean(parse), "us"},
		"plan.build_us":               {mean(build), "us"},
		"analyzer.analyze_us":         {mean(analyze), "us"},
		"optimizer.optimize_us":       {mean(optimize), "us"},
		"physical.plan_us":            {mean(physPlan), "us"},
		"server.self_ms":              {mean(self), "ms"},
		"server.bytes_per_row":        {perRow(bytesOut, rowsOut), "B/row"},
		"server.outside_exec_ms":      {mean(outside), "ms"},
		"resultcache.hit_ratio":       {hitRatio, "fraction"},
		"resultcache.evictions":       {float64(after.Evictions - before.Evictions), "count"},
		"resultcache.upgrades":        {float64(after.Upgrades - before.Upgrades), "count"},
		"resultcache.used_mb":         {float64(after.UsedBytes) / (1 << 20), "MiB"},
		"session.append_ms":           {mean(appendMS), "ms"},
		"session.execute_ms":          {mean(exec), "ms"},
		"cluster.stage_ms":            {mean(stage), "ms"},
		"physical.unattributed_ms":    {mean(unattributed), "ms"},
		"cluster.stages":              {perQuery(stages), "count"},
		"cluster.morsels":             {perQuery(morsels), "count"},
		"cluster.steals":              {perQuery(steals), "count"},
		"cluster.parallelism":         {perQuery(par), "workers"},
		"cluster.task_retries":        {retries, "count"},
		"skyline.comparisons":         {perQuery(comparisons), "count"},
		"skyline.comparisons_per_row": {perRow(comparisons, inputRows), "count/row"},
		"physical.batches_decoded":    {perQuery(batches), "count"},
		"physical.rows_shuffled":      {perQuery(shuffled), "count"},
		"physical.peak_mb":            {mean(peak), "MiB"},
		"loadgen.late_ms":             {rep.late, "ms"},
		"loadgen.slo_rps":             {rep.sloRPS, "req/s"},
		"loadgen.append_p95_ms":       {rep.appendP95, "ms"},
		"trace.overhead_pct":          {100 * (served - untraced) / untraced, "%"},
	}

	// Layer-dominance self-check: each workload must load the layers it
	// was chosen for.
	var bad []string
	switch w.name {
	case "adhoc":
		// Execution and latency come from the same untraced requests (the
		// server's duration_ms is its session's collect time), so a change
		// in machine speed between the untraced run and this replay cannot
		// move the ratio.
		fmt.Printf("# self-check: session execution %.0f ms of %.0f ms query latency (ratio %.2f, floor 0.80)\n",
			durSum, untracedQuery, durSum/untracedQuery)
		if hits != 0 {
			bad = append(bad, fmt.Sprintf("%d result-cache hits, want 0", hits))
		}
		if durSum < 0.8*untracedQuery {
			bad = append(bad, fmt.Sprintf("session execution %.0f ms is under 80%% of the %.0f ms query latency", durSum, untracedQuery))
		}
	case "serve-hot":
		if misses != 0 || hits == 0 {
			bad = append(bad, fmt.Sprintf("%d hits and %d misses, want every query a hit", hits, misses))
		}
		if comparisons != 0 {
			bad = append(bad, fmt.Sprintf("%.0f dominance comparisons in the timed window, want 0", comparisons))
		}
	case "ingest-mix":
		if after.Upgrades-before.Upgrades < 1 {
			bad = append(bad, "no in-place result-cache upgrade")
		}
		if misses < 1 {
			bad = append(bad, "no post-warm-up miss (invalidation and recompute)")
		}
	}
	if len(bad) > 0 {
		return nil, nil, fmt.Errorf("%w on %s: %v", errSelfCheck, w.name, bad)
	}
	return layers, tr.spans, nil
}

// serveOp sends one request through (*server.Server).ServeHTTP inside a
// span under parent.
func serveOp(tr *tracer, srv *server.Server, parent, op int, path string, body []byte) (int, []byte, time.Duration) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	d := tr.timed("server.ServeHTTP", parent, op, func() { srv.ServeHTTP(rec, req) })
	return rec.Code, rec.Body.Bytes(), d
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tableBody is the POST /tables body for t.
func tableBody(t *table) []byte {
	var sb bytes.Buffer
	sb.WriteString(`{"name":"` + t.name + `","columns":[`)
	for i, c := range t.cols {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"name":%q,"type":%q,"nullable":%v}`, c.Name, c.Type, c.Nullable)
	}
	sb.WriteString(`],"rows":`)
	sb.Write(jsonRows(t.rows))
	sb.WriteByte('}')
	return sb.Bytes()
}
