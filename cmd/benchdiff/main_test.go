package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"skysql/internal/bench"
	"skysql/internal/cluster"
)

func rec(exp string, stages, decoded, vec, shuffled, peak int64, rows int) bench.Record {
	return bench.Record{
		Experiment: exp, Dataset: "d", Algorithm: "a", Dimensions: 2, Tuples: 100,
		Executors: 4, ColumnarKernel: true, VectorizedExprs: true,
		ResultRows: rows, WallSeconds: 0.5,
		Counts: cluster.Counts{cluster.StagesExecuted: stages, cluster.BatchesDecoded: decoded,
			cluster.VectorizedBatches: vec, cluster.RowsShuffled: shuffled, cluster.PeakBytes: peak},
	}
}

func report(recs ...bench.Record) *bench.Report {
	return &bench.Report{Scale: 1, Seed: 1, Records: recs}
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := report(rec("e", 3, 4, 4, 100, 9000, 7), rec("e", 3, 4, 0, 100, 9000, 7))
	var sb strings.Builder
	if got := compare(base, report(base.Records...), 0, &sb); got != 0 {
		t.Fatalf("identical reports regressed: %d\n%s", got, sb.String())
	}
}

func TestCompareDirections(t *testing.T) {
	base := report(rec("e", 3, 4, 4, 100, 9000, 7))
	cases := []struct {
		name    string
		mutate  func(*bench.Record)
		regress bool
	}{
		{"more stages", func(r *bench.Record) { r.Counts[cluster.StagesExecuted]++ }, true},
		{"fewer stages", func(r *bench.Record) { r.Counts[cluster.StagesExecuted]-- }, false},
		{"more decodes", func(r *bench.Record) { r.Counts[cluster.BatchesDecoded]++ }, true},
		{"fewer vectorized", func(r *bench.Record) { r.Counts[cluster.VectorizedBatches]-- }, true},
		{"more vectorized", func(r *bench.Record) { r.Counts[cluster.VectorizedBatches]++ }, false},
		{"more shuffled", func(r *bench.Record) { r.Counts[cluster.RowsShuffled] += 5 }, true},
		{"more peak bytes", func(r *bench.Record) { r.Counts[cluster.PeakBytes] += 5 }, true},
		{"result rows drift", func(r *bench.Record) { r.ResultRows++ }, true},
		{"wall time only", func(r *bench.Record) { r.WallSeconds *= 100 }, false},
	}
	for _, tc := range cases {
		fresh := report(base.Records[0])
		tc.mutate(&fresh.Records[0])
		var sb strings.Builder
		got := compare(base, fresh, 0, &sb)
		if (got > 0) != tc.regress {
			t.Errorf("%s: regressions = %d, want regression: %v\n%s", tc.name, got, tc.regress, sb.String())
		}
	}
}

func TestCompareTolerance(t *testing.T) {
	base := report(rec("e", 3, 4, 4, 100, 9000, 7))
	fresh := report(rec("e", 3, 4, 4, 105, 9000, 7))
	var sb strings.Builder
	if got := compare(base, fresh, 0.1, &sb); got != 0 {
		t.Errorf("5%% growth within 10%% tolerance must pass: %d\n%s", got, sb.String())
	}
	if got := compare(base, fresh, 0.01, &sb); got == 0 {
		t.Error("5% growth beyond 1% tolerance must fail")
	}
}

func TestCompareRecordSetDrift(t *testing.T) {
	base := report(rec("e", 3, 4, 4, 100, 9000, 7))
	var sb strings.Builder
	// Missing record.
	if got := compare(base, report(), 0, &sb); got == 0 {
		t.Error("missing fresh record must fail")
	}
	// Extra record (different identity).
	extra := rec("other", 3, 4, 4, 100, 9000, 7)
	if got := compare(base, report(base.Records[0], extra), 0, &sb); got == 0 {
		t.Error("record absent from baseline must fail")
	}
	// Same identity, different multiplicity.
	if got := compare(base, report(base.Records[0], base.Records[0]), 0, &sb); got == 0 {
		t.Error("record count drift must fail")
	}
	// Errored record.
	bad := base.Records[0]
	bad.Error = "boom"
	if got := compare(base, report(bad), 0, &sb); got == 0 {
		t.Error("errored record must fail")
	}
}

func TestCompareVariantSeparatesIdentities(t *testing.T) {
	// Two records differing only in Variant (e.g. filter cuts) must not be
	// zipped positionally: reordering them across reports is a shape
	// mismatch, not a counter regression.
	a := rec("e", 3, 4, 4, 100, 9000, 7)
	a.Variant = "d1<0.25"
	b := rec("e", 3, 4, 0, 200, 9000, 9)
	b.Variant = "d1<0.75"
	base := report(a, b)
	var sb strings.Builder
	if got := compare(base, report(b, a), 0, &sb); got != 0 {
		t.Errorf("variant reorder must match by identity, got %d regressions\n%s", got, sb.String())
	}
	// A changed cut value shows up as record-set drift, not counter noise.
	c := b
	c.Variant = "d1<0.9"
	sb.Reset()
	if got := compare(base, report(a, c), 0, &sb); got == 0 {
		t.Error("changed variant must fail as record-set drift")
	} else if !strings.Contains(sb.String(), "regenerate the baseline") {
		t.Errorf("want shape error, got:\n%s", sb.String())
	}
}

// TestBaselineCountersReachTheGate: every key of every committed
// baseline reaches the reader — as a Record field or as a row of the
// counter table — and each gated counter reads the value a plain JSON
// decode sees. A key misspelled in the table would leave the baseline's
// key unread, so the counter would read 0 on both sides and gate nothing.
func TestBaselineCountersReachTheGate(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines found (%v)", err)
	}
	fields := map[string]bool{}
	rt := reflect.TypeOf(bench.Record{})
	for i := 0; i < rt.NumField(); i++ {
		name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		fields[name] = true
	}
	table := map[string]cluster.Counter{}
	for c := range cluster.NumCounters {
		table[c.Key()] = c
	}
	for _, path := range paths {
		rep, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var raw struct{ Records []map[string]any }
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		for i, r := range rep.Records {
			for key := range raw.Records[i] {
				if _, ok := table[key]; !ok && !fields[key] {
					t.Errorf("%s record %d: key %q reaches no field of the reader", path, i, key)
				}
			}
			for _, c := range counters {
				if v, ok := raw.Records[i][c.name]; ok && float64(c.read(r)) != v.(float64) {
					t.Errorf("%s record %d: %s reads %d, file holds %v", path, i, c.name, c.read(r), v)
				}
			}
		}
	}
}

// TestCounterTableReachesEverySurface: each row of the counter table shows
// a non-zero value under its label in the rendered metrics, under its key
// in a marshalled record and back through the reader, and is gated by
// benchdiff exactly when the table says so.
func TestCounterTableReachesEverySurface(t *testing.T) {
	var m cluster.Metrics
	want := func(c cluster.Counter) int64 { return int64(101 + c) }
	for c := range cluster.NumCounters {
		switch c {
		case cluster.PeakBytes:
			m.Alloc(want(c))
		case cluster.BatchesDecoded:
			for range want(c) {
				m.Sky.AddBatchDecoded()
			}
		case cluster.DominanceTests:
			m.Sky.AddTests(want(c))
		case cluster.Comparisons:
			m.Sky.AddComparisons(want(c))
		default:
			m.Add(c, want(c))
		}
	}
	lines := strings.Split(m.Format(), "\n")
	b, err := json.Marshal(bench.NewRecord("t", bench.Measurement{Counts: m.Counts()}))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var back bench.Record
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, g := range counters {
		gated[g.name] = g.higherWorse
	}
	keys, labels := map[string]bool{}, map[string]bool{}
	for c := range cluster.NumCounters {
		key, label := c.Key(), c.Label()
		if keys[key] || labels[label] {
			t.Errorf("counter %d: key %q or label %q declared twice", c, key, label)
		}
		keys[key], labels[label] = true, true
		if line := fmt.Sprintf("%s: %d", label, want(c)); !slices.Contains(lines, line) {
			t.Errorf("rendered metrics lack %q:\n%s", line, m.Format())
		}
		if v, ok := raw[key].(float64); !ok || v != float64(want(c)) {
			t.Errorf("record key %q = %v, want %d", key, raw[key], want(c))
		}
		if back.Counts[c] != want(c) {
			t.Errorf("record key %q reads back as %d, want %d", key, back.Counts[c], want(c))
		}
		higherWorse, isGated := gated[key]
		switch {
		case c.Gate() == cluster.Informational && isGated:
			t.Errorf("%s is informational but gated", key)
		case c.Gate() != cluster.Informational && !isGated:
			t.Errorf("%s is not gated by benchdiff", key)
		case isGated && higherWorse != (c.Gate() == cluster.HigherIsWorse):
			t.Errorf("%s gated in the wrong direction", key)
		}
	}
}
