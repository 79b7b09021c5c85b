package main

import (
	"fmt"
	"math/rand"
	"strconv"
)

type opKind int

const (
	opQuery opKind = iota
	opAppend
)

// op is one request of a workload: a query, or an append of rows to a
// table.
type op struct {
	kind opKind
	q    *query
	t    *table      // append target
	rows [][]float64 // appended rows
}

// path is the HTTP endpoint the op posts to.
func (o *op) path() string {
	if o.kind == opAppend {
		return "/append"
	}
	return "/query"
}

// body is the JSON request body.
func (o *op) body() []byte {
	if o.kind == opAppend {
		return []byte(`{"name":` + strconv.Quote(o.t.name) + `,"rows":` + string(jsonRows(o.rows)) + `}`)
	}
	return []byte(`{"sql":` + strconv.Quote(o.q.sql) + `}`)
}

// workload is one traffic mix: the tables loaded during set-up, the
// queries that warm the server, and the timed operation stream.
type workload struct {
	name       string
	tables     []*table
	warm       []*query // run during set-up, after the tables are loaded
	crossCheck []*query // checked against the plain-SQL rewrite
	// next yields the closed-loop operation stream; nil for serve-hot.
	next func() *op
	// serve-hot only: the fixed shapes and the zipfian shape picker.
	shapes []*query
	zipf   *rand.Zipf
	// appendEvery > 0: every appendEvery-th open-loop slot is a staging
	// append instead of a query.
	appendEvery int
	staging     *appender
}

const (
	appendBatch = 50 // rows per POST /append
	cacheMB     = 64 // skysqld -cache-mb, the default result-cache budget

	// serve-hot open-loop parameters.
	nominalRate   = 200.0 // requests per second in the nominal phase
	latencyLimit  = 20.0  // ms, the p95 limit of the rate ladder
	lateLimit     = 5.0   // ms, the p95 generator lateness that invalidates a window
	lateAttempts  = 3     // serve-hot windows tried before the run fails
	zipfS         = 1.2
	hotAppendGap  = 5 // every 5th nominal slot appends to staging
	adhocRows     = 20000
	antiRows      = 5000
	hotRows       = 5000
	liveRows      = 5000
	stagingRows   = 1000
	crossCheckRow = 300 // rows per table in the plain-SQL cross-check
)

// appender yields seeded append batches for one table, continuing its id
// sequence.
type appender struct {
	t      *table
	nextID float64
	dims   int
	rng    *rand.Rand
}

func newAppender(t *table, rng *rand.Rand) *appender {
	return &appender{t: t, nextID: float64(len(t.rows) + 1), dims: len(t.cols) - 1, rng: rng}
}

func (a *appender) op() *op {
	rows := make([][]float64, appendBatch)
	for i := range rows {
		rows[i] = pointRow(a.nextID, a.dims, false, 0, a.rng)
		a.nextID++
	}
	return &op{kind: opAppend, t: a.t, rows: rows}
}

// newWorkload builds the named workload's inputs from seed.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "adhoc":
		return adhocWorkload(rng), nil
	case "serve-hot":
		return serveHotWorkload(rng), nil
	case "ingest-mix":
		return ingestMixWorkload(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (adhoc, serve-hot, ingest-mix)", name)
}

// adhocWorkload: paper Fig. 3/4 dimension sweeps (d = 1..6) over the
// complete and incomplete Airbnb and store_sales tables, plus two
// anti-correlated 4-d shapes. Every query carries a fresh id cut, so no
// query repeats and the result cache never hits. Each cycle visits every
// family once in a seeded order, so the mix is the same on every seed.
// A staging append follows each query: it touches no table the queries
// read, so it measures the append path with no cache entry to maintain.
func adhocWorkload(rng *rand.Rand) *workload {
	airbnb := genAirbnb("airbnb", adhocRows, 0, rng)
	airbnbInc := genAirbnb("airbnb_inc", adhocRows, 0.08, rng)
	sales := genStoreSales("store_sales", adhocRows, 0, rng)
	salesInc := genStoreSales("store_sales_inc", adhocRows, 0.08, rng)
	anti := genPoints("anti", antiRows, 4, true, 0.02, false, rng)
	staging := genPoints("staging", stagingRows, 3, false, 0, false, rng)

	type family struct {
		t        *table
		dims     []string
		complete bool
	}
	var fams []family
	for _, f := range []struct {
		t, inc *table
		dims   []string
	}{{airbnb, airbnbInc, airbnbDims}, {sales, salesInc, storeSalesDims}} {
		for d := 1; d <= 6; d++ {
			fams = append(fams, family{f.t, f.dims[:d], true}, family{f.inc, f.dims[:d], false})
		}
	}
	fams = append(fams,
		family{anti, []string{"d1 MIN", "d2 MIN", "d3 MIN", "d4 MIN"}, true},
		family{anti, []string{"d1 MIN", "d2 MIN", "d3 MAX", "d4 MIN"}, true})

	// mk draws a query of family f with a fresh id cut in [lo*n, hi*n).
	seen := map[string]bool{}
	mk := func(f family, lo, hi float64) *query {
		for {
			n := float64(len(f.t.rows))
			cut := float64(int(n*lo) + rng.Intn(int(n*hi)-int(n*lo)))
			shape := fmt.Sprintf("%s/d%d", f.t.name, len(f.dims))
			q := newQuery(shape, f.t, []cond{{col: 0, le: true, val: cut}}, f.dims, f.complete, 0)
			if !seen[q.sql] {
				seen[q.sql] = true
				return q
			}
		}
	}
	w := &workload{name: "adhoc", tables: []*table{airbnb, airbnbInc, sales, salesInc, anti, staging}}
	// Warm-up and cross-check queries come from the same families with
	// cuts below every timed cut, in a narrow band so set-up costs the
	// same on every seed.
	for _, f := range fams {
		if len(f.dims) == 6 || len(f.dims) == 4 && f.t == anti {
			w.warm = append(w.warm, mk(f, 0.85, 0.9))
		}
		if len(f.dims) == 3 || f.t == anti {
			w.crossCheck = append(w.crossCheck, mk(f, 0.85, 0.9))
		}
	}
	stage := newAppender(staging, rng)
	var cycle []int
	pendingAppend := false
	w.next = func() *op {
		if pendingAppend {
			pendingAppend = false
			return stage.op()
		}
		if len(cycle) == 0 {
			cycle = rng.Perm(len(fams))
		}
		f := fams[cycle[0]]
		cycle = cycle[1:]
		pendingAppend = true
		return &op{kind: opQuery, q: mk(f, 0.9, 1)}
	}
	return w
}

// serveHotWorkload: eight fixed shapes over one anti-correlated 5k x 4
// table, requested zipfian by a fixed rank order, with answers from a
// couple of rows to about 3.5k rows. Every shape is warmed in set-up, so
// every timed query is a cache hit. Staging appends share the schedule
// and touch no hot entry.
func serveHotWorkload(rng *rand.Rand) *workload {
	hot := genPoints("hot", hotRows, 4, true, 0.02, false, rng)
	staging := genPoints("staging", stagingRows, 3, false, 0, false, rng)
	lt := func(col int, v float64) []cond { return []cond{{col: col, val: v}} }
	all := []string{"d1 MIN", "d2 MIN", "d3 MIN", "d4 MIN"}
	// Rank order (most requested first). The 3.5k-row shape sits at rank
	// 3 (11.5% of requests), so the p95 falls well inside its latency
	// cluster rather than near the edge between two clusters.
	shapes := []*query{
		newQuery("hot/r1", hot, nil, all[:2], true, 0),
		newQuery("hot/r2", hot, lt(4, 0.3), all[:3], true, 0),
		newQuery("hot/r3", hot, nil, all, true, 0),
		newQuery("hot/r4", hot, nil, all[:3], true, 0),
		newQuery("hot/r5", hot, lt(1, 0.25), all, true, 0),
		newQuery("hot/r6", hot, nil, all[:1], true, 0),
		newQuery("hot/r7", hot, nil, []string{"d1 MAX", "d2 MAX"}, true, 0),
		newQuery("hot/r8", hot, lt(2, 0.5), all[2:], true, 0),
	}
	return &workload{
		name:        "serve-hot",
		tables:      []*table{hot, staging},
		warm:        shapes,
		crossCheck:  shapes,
		shapes:      shapes,
		zipf:        rand.NewZipf(rng, zipfS, 1, uint64(len(shapes)-1)),
		appendEvery: hotAppendGap,
		staging:     newAppender(staging, rng),
	}
}

// hotOp picks the next serve-hot request for open-loop slot i.
func (w *workload) hotOp(i int, appends bool) *op {
	if appends && i%w.appendEvery == w.appendEvery-1 {
		return w.staging.op()
	}
	return &op{kind: opQuery, q: w.shapes[w.zipf.Uint64()]}
}

// ingestMixWorkload: a growing 4-d table. Each round appends 50 seeded
// rows, then asks three maintainable queries (complete, unbounded BNL:
// the cache upgrades them in place) and one non-maintainable query
// (incomplete semantics, or ORDER BY ... LIMIT: the append invalidated
// it, so it recomputes).
func ingestMixWorkload(rng *rand.Rand) *workload {
	live := genPoints("live", liveRows, 4, false, 0, true, rng)
	maint := []*query{
		newQuery("live/m1", live, nil, []string{"d1 MIN", "d2 MIN"}, true, 0),
		newQuery("live/m2", live, nil, []string{"d2 MIN", "d3 MIN", "d4 MIN"}, true, 0),
		newQuery("live/m3", live, []cond{{col: 4, val: 0.5}}, []string{"d1 MIN", "d2 MAX", "d3 MIN"}, true, 0),
	}
	nonMaint := []*query{
		newQuery("live/n1", live, nil, []string{"d1 MIN", "d3 MIN", "d4 MIN"}, false, 0),
		newQuery("live/n2", live, nil, []string{"d2 MIN", "d3 MIN", "d4 MIN"}, true, 20),
	}
	shapes := append(append([]*query(nil), maint...), nonMaint...)
	w := &workload{name: "ingest-mix", tables: []*table{live}, warm: shapes, crossCheck: shapes, shapes: shapes}
	app := newAppender(live, rng)
	var round []*op
	rounds := 0
	w.next = func() *op {
		if len(round) == 0 {
			round = []*op{app.op()}
			qs := []*query{maint[rng.Intn(3)], maint[rng.Intn(3)], maint[rng.Intn(3)], nonMaint[rounds%2]}
			for _, i := range rng.Perm(len(qs)) {
				round = append(round, &op{kind: opQuery, q: qs[i]})
			}
			rounds++
		}
		o := round[0]
		round = round[1:]
		return o
	}
	return w
}
