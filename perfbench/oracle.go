package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"skysql"
)

// dim is one skyline dimension resolved to a column index.
type dim struct {
	col int
	max bool
}

// cond is one WHERE conjunct: column < val, or column <= val when le.
type cond struct {
	col int
	le  bool
	val float64
}

// query is one SKYLINE OF query together with everything the oracle
// needs to compute its answer independently of the engine.
type query struct {
	shape      string // stable name of the query template, for reports
	t          *table
	where      []cond
	dims       []dim
	incomplete bool // the paper's incomplete-data semantics apply
	limit      int  // > 0: ORDER BY id LIMIT limit
	sql        string
}

// newQuery builds SELECT * FROM t [WHERE ...] SKYLINE OF [COMPLETE] dims
// [ORDER BY id LIMIT n]. dimSpecs are "column MIN|MAX". Without COMPLETE
// over a nullable dimension the engine uses incomplete dominance, and so
// does the oracle.
func newQuery(shape string, t *table, where []cond, dimSpecs []string, complete bool, limit int) *query {
	q := &query{shape: shape, t: t, where: where, limit: limit}
	var sb strings.Builder
	sb.WriteString("SELECT * FROM " + t.name)
	for i, c := range where {
		if i == 0 {
			sb.WriteString(" WHERE ")
		} else {
			sb.WriteString(" AND ")
		}
		op := " < "
		if c.le {
			op = " <= "
		}
		sb.WriteString(t.cols[c.col].Name + op + strconv.FormatFloat(c.val, 'g', -1, 64))
	}
	sb.WriteString(" SKYLINE OF ")
	if complete {
		sb.WriteString("COMPLETE ")
	}
	for i, spec := range dimSpecs {
		f := strings.Fields(spec)
		d := dim{col: t.col(f[0]), max: f[1] == "MAX"}
		q.dims = append(q.dims, d)
		if !complete && t.cols[d.col].Nullable {
			q.incomplete = true
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(spec)
	}
	if limit > 0 {
		sb.WriteString(" ORDER BY id LIMIT " + strconv.Itoa(limit))
	}
	q.sql = sb.String()
	return q
}

// keep reports whether row passes the WHERE clause (a NULL comparison is
// not true, so the row is dropped).
func (q *query) keep(row []float64) bool {
	for _, c := range q.where {
		v := row[c.col]
		if isNull(v) || v > c.val || (!c.le && v == c.val) {
			return false
		}
	}
	return true
}

// dominates is Definition 3.1 of the paper, restricted under incomplete
// semantics to the dimensions where both tuples are non-NULL: a is at
// least as good as b on every compared dimension and strictly better on
// one.
func (q *query) dominates(a, b []float64) bool {
	strict := false
	for _, d := range q.dims {
		x, y := a[d.col], b[d.col]
		if q.incomplete && (isNull(x) || isNull(y)) {
			continue
		}
		if d.max {
			x, y = -x, -y
		}
		if x > y {
			return false
		}
		if x < y {
			strict = true
		}
	}
	return strict
}

// expected computes the query's answer over rows by nested-loop
// dominance: a row is in the skyline iff no row passing the filter
// dominates it. Only the order in which candidate dominators are tried
// is tuned: rows that already dominated another row are tried first, and
// under complete semantics, where a dominator has a no-larger
// direction-normalized coordinate sum (float addition is monotone), rows
// with a larger sum are skipped. Incomplete dominance is not transitive,
// so there every row is a candidate; a row NULL on every dimension
// compares on none and is never dominated.
func (q *query) expected(rows [][]float64) [][]float64 {
	var in [][]float64
	for _, r := range rows {
		if q.keep(r) {
			in = append(in, r)
		}
	}
	sums := make([]float64, len(in))
	for i, r := range in {
		for _, d := range q.dims {
			if d.max {
				sums[i] -= r[d.col]
			} else {
				sums[i] += r[d.col]
			}
		}
	}
	order := make([]int, len(in))
	for i := range order {
		order[i] = i
	}
	if !q.incomplete {
		sort.Slice(order, func(a, b int) bool { return sums[order[a]] < sums[order[b]] })
	}
	const cacheSize = 32
	var cache []int // recent dominators, most recent first
	dominatedBy := func(i, j int) bool {
		if j == i || !q.dominates(in[j], in[i]) {
			return false
		}
		for k, c := range cache {
			if c == j {
				cache = append(cache[:k], cache[k+1:]...)
				break
			}
		}
		cache = append([]int{j}, cache[:min(len(cache), cacheSize-1)]...)
		return true
	}
	var out [][]float64
	for _, i := range order {
		if q.incomplete && q.allNull(in[i]) {
			out = append(out, in[i])
			continue
		}
		dominated := false
		for _, j := range append([]int(nil), cache...) {
			if dominatedBy(i, j) {
				dominated = true
				break
			}
		}
		for _, j := range order {
			if dominated || (!q.incomplete && sums[j] > sums[i]) {
				break
			}
			dominated = dominatedBy(i, j)
		}
		if !dominated {
			out = append(out, in[i])
		}
	}
	return q.applyLimit(out)
}

// applyLimit applies ORDER BY id LIMIT to a skyline (no-op without one).
func (q *query) applyLimit(sky [][]float64) [][]float64 {
	if q.limit <= 0 {
		return sky
	}
	out := append([][]float64(nil), sky...)
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out[:min(len(out), q.limit)]
}

// unlimited is q without its ORDER BY ... LIMIT: the whole skyline.
func (q *query) unlimited() *query {
	c := *q
	c.limit = 0
	return &c
}

// allNull reports whether row is NULL on every skyline dimension.
func (q *query) allNull(row []float64) bool {
	for _, d := range q.dims {
		if !isNull(row[d.col]) {
			return false
		}
	}
	return true
}

// rowKey renders a row canonically; two rows are equal iff their keys are.
func rowKey(row []float64) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = formatCell(v)
	}
	return strings.Join(parts, ",")
}

// sameMultiset compares two row sets as multisets.
func sameMultiset(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, oracle has %d", len(got), len(want))
	}
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i := range got {
		g[i], w[i] = rowKey(got[i]), rowKey(want[i])
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %s where the oracle has %s", g[i], w[i])
		}
	}
	return nil
}

// crossCheckOracle checks the oracle against the paper's plain-SQL
// reference rewrite (§5.9, Session.RewriteSkyline), which computes the
// skyline with NOT EXISTS and no skyline operator, over the first
// sampleRows rows of each query's table.
func crossCheckOracle(queries []*query, sampleRows int) error {
	sess := skysql.NewSession()
	defer sess.Close()
	loaded := map[*table]*table{}
	for _, q := range queries {
		part, ok := loaded[q.t]
		if !ok {
			n := min(sampleRows, len(q.t.rows))
			part = &table{name: q.t.name, cols: q.t.cols, rows: q.t.rows[:n]}
			if err := sess.CreateTable(part.name, sessionSchema(part), sessionRows(part.rows, part.cols)); err != nil {
				return fmt.Errorf("cross-check: loading %s: %w", part.name, err)
			}
			loaded[q.t] = part
		}
		ref, err := sess.RewriteSkyline(q.sql, q.incomplete)
		if err != nil {
			return fmt.Errorf("cross-check: rewriting %q: %w", q.sql, err)
		}
		rows, err := sess.Query(ref)
		if err != nil {
			return fmt.Errorf("cross-check: running %q: %w", ref, err)
		}
		got := make([][]float64, len(rows))
		for i, r := range rows {
			got[i] = make([]float64, len(r))
			for j, v := range r {
				switch v.Kind() {
				case skysql.KindInt:
					got[i][j] = float64(v.AsInt())
				case skysql.KindFloat:
					got[i][j] = v.AsFloat()
				default:
					got[i][j] = null
				}
			}
		}
		// The rewrite drops ORDER BY ... LIMIT; compare whole skylines.
		if err := sameMultiset(got, q.unlimited().expected(part.rows)); err != nil {
			return fmt.Errorf("cross-check: oracle and the plain-SQL rewrite of %q differ on a %d-row sample: %w", q.sql, len(part.rows), err)
		}
	}
	return nil
}

// sessionSchema is the in-process schema POST /tables builds for t.
func sessionSchema(t *table) *skysql.Schema {
	fields := make([]skysql.Field, len(t.cols))
	for i, c := range t.cols {
		kind := skysql.KindFloat
		if c.Type == "BIGINT" {
			kind = skysql.KindInt
		}
		fields[i] = skysql.Field{Name: c.Name, Type: kind, Nullable: c.Nullable}
	}
	return skysql.NewSchema(fields...)
}

// sessionRows converts rows to engine values as POST /tables decodes them.
func sessionRows(rows [][]float64, cols []column) []skysql.Row {
	out := make([]skysql.Row, len(rows))
	for i, r := range rows {
		row := make(skysql.Row, len(r))
		for j, v := range r {
			switch {
			case isNull(v):
				row[j] = skysql.Null
			case cols != nil && cols[j].Type == "BIGINT":
				row[j] = skysql.Int(int64(v))
			default:
				row[j] = skysql.Float(v)
			}
		}
		out[i] = row
	}
	return out
}
