package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// minWindowSamples is the fewest samples a window needs: ten lie beyond
// its p95.
const minWindowSamples = 200

// windowed splits [start, end) into the largest number of equal windows,
// at most four, in which every window holds at least minWindowSamples of
// xs (keyed by their times at), applies stat to each window's values and
// length in seconds, and returns the median. A burst of machine noise
// then moves one window, not the result. With too few samples for two
// windows it is stat over the whole span.
func windowed(at []time.Time, xs []float64, start, end time.Time, stat func(xs []float64, secs float64) float64) float64 {
	for n := 4; n > 1; n-- {
		parts := make([][]float64, n)
		width := end.Sub(start) / time.Duration(n)
		for i, t := range at {
			k := min(max(int(t.Sub(start)/width), 0), n-1)
			parts[k] = append(parts[k], xs[i])
		}
		enough := true
		for _, p := range parts {
			enough = enough && len(p) >= minWindowSamples
		}
		if !enough {
			continue
		}
		vals := make([]float64, n)
		for i, p := range parts {
			vals[i] = stat(p, width.Seconds())
		}
		return median(vals)
	}
	return stat(xs, end.Sub(start).Seconds())
}

// latencies returns the send times and latencies (ms) of the successful
// samples that satisfy keep.
func latencies(samples []*sample, keep func(*sample) bool) ([]time.Time, []float64) {
	var at []time.Time
	var lat []float64
	for _, s := range samples {
		if s.ok() && keep(s) {
			at = append(at, s.at)
			lat = append(lat, ms(s.lat))
		}
	}
	return at, lat
}

func p50(xs []float64, _ float64) float64       { return quantile(xs, 0.5) }
func p95(xs []float64, _ float64) float64       { return quantile(xs, 0.95) }
func perSec(xs []float64, secs float64) float64 { return float64(len(xs)) / secs }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decodeRows parses the rows of a /query response body.
func decodeRows(body []byte) ([][]float64, error) {
	var resp struct {
		Rows     [][]*float64 `json:"rows"`
		RowCount int          `json:"row_count"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding /query response: %w", err)
	}
	if resp.RowCount != len(resp.Rows) {
		return nil, fmt.Errorf("row_count %d but %d rows", resp.RowCount, len(resp.Rows))
	}
	out := make([][]float64, len(resp.Rows))
	for i, r := range resp.Rows {
		out[i] = make([]float64, len(r))
		for j, v := range r {
			out[i][j] = null
			if v != nil {
				out[i][j] = *v
			}
		}
	}
	return out, nil
}

// checker compares answers against the oracle and collects mismatches.
type checker struct {
	mismatches []string
}

func (c *checker) fail(s *sample, format string, args ...any) {
	what := s.op.path()
	if s.op.q != nil {
		what = s.op.q.sql
	}
	c.mismatches = append(c.mismatches, fmt.Sprintf("%s: %s", what, fmt.Sprintf(format, args...)))
}

// checkAnswer compares one successful query answer against want.
func (c *checker) checkAnswer(s *sample, want [][]float64) {
	got, err := decodeRows(s.body)
	if err != nil {
		c.fail(s, "%v", err)
		return
	}
	if err := sameMultiset(got, want); err != nil {
		c.fail(s, "%v", err)
	}
}

// checkAppend checks an acknowledged append's body.
func (c *checker) checkAppend(s *sample) {
	if s.ok() && s.body != nil {
		c.fail(s, "unexpected append response %q", s.body)
	}
}

// verifyStatic checks answers over tables no query-visible append
// changes (adhoc, serve-hot). Each distinct query's oracle answer is
// computed once, on workers goroutines.
func verifyStatic(samples []*sample, workers int) *checker {
	c := &checker{}
	want := map[*query][][]float64{}
	var todo []*query
	for _, s := range samples {
		if s.op.kind == opAppend {
			c.checkAppend(s)
			continue
		}
		if s.ok() && s.body != nil {
			if _, ok := want[s.op.q]; !ok {
				want[s.op.q] = nil
				todo = append(todo, s.op.q)
			}
		}
	}
	results := make([][][]float64, len(todo))
	var wg sync.WaitGroup
	next := make(chan int, len(todo)) // sized to the number of sends
	for i := range todo {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = todo[i].expected(todo[i].t.rows)
			}
		}()
	}
	wg.Wait()
	for i, q := range todo {
		want[q] = results[i]
	}
	for _, s := range samples {
		if s.op.kind == opQuery && s.ok() && s.body != nil {
			c.checkAnswer(s, want[s.op.q])
		}
	}
	return c
}

// verifyIngest checks ingest-mix answers in request order. The oracle
// keeps each shape's full skyline and folds in every acknowledged append:
// the appended rows carry no NULL, so dominance over this table is
// transitive and the skyline of (old skyline + new rows) is the skyline
// of the grown table. Each set-up repetition starts a fresh server, so
// warm-up answers are checked against the initial table.
func verifyIngest(w *workload, warm, timed []*sample) *checker {
	c := &checker{}
	initial := map[*query][][]float64{}
	for _, q := range w.shapes {
		initial[q] = q.unlimited().expected(q.t.rows)
	}
	for _, s := range warm {
		if s.ok() {
			c.checkAnswer(s, s.op.q.applyLimit(initial[s.op.q]))
		}
	}
	sky := map[*query][][]float64{}
	for q, rows := range initial {
		sky[q] = rows
	}
	for _, s := range timed {
		switch {
		case s.op.kind == opAppend && s.ok():
			c.checkAppend(s)
			for _, q := range w.shapes {
				sky[q] = q.unlimited().expected(append(append([][]float64(nil), sky[q]...), s.op.rows...))
			}
		case s.op.kind == opQuery && s.ok():
			c.checkAnswer(s, s.op.q.applyLimit(sky[s.op.q]))
		}
	}
	return c
}

// errorCount counts failed requests.
func errorCount(samples []*sample) int {
	n := 0
	for _, s := range samples {
		if !s.ok() {
			n++
		}
	}
	return n
}

// describeFailure renders the first failed request for the log.
func describeFailure(samples []*sample) string {
	for _, s := range samples {
		if s.err != nil {
			return fmt.Sprintf("%s: %v", s.op.path(), s.err)
		}
		if s.status != http.StatusOK {
			return fmt.Sprintf("%s: HTTP %d: %s", s.op.path(), s.status, s.body)
		}
	}
	return ""
}
