// Command benchdiff turns the BENCH_*.json trajectory from a passive
// artifact into a regression gate: it compares a freshly generated
// skybench JSON report against a committed baseline on the deterministic
// counters — the gated rows of the engine's counter table plus the serve
// experiment's request and rejection counts — and exits non-zero when any
// record regressed. Wall-time fields are machine-dependent and stay
// informational (the total delta is printed, never gated on).
//
// Records are matched by their identifying fields (experiment, dataset,
// algorithm, dimensions, tuples, executors, and the ablation switches);
// records sharing an identity (e.g. one per filter cut) are compared in
// emission order, which skybench keeps deterministic. A record-set
// mismatch fails the gate too: it means the experiment changed shape and
// the baseline must be regenerated deliberately alongside the change.
//
// Usage:
//
//	benchdiff -baseline BENCH_PR4.json -fresh fresh.json [-tolerance 0.0]
//
// Full manual, including the gated-counter list and the record-identity
// rules: docs/benchdiff.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"skysql/internal/bench"
	"skysql/internal/cluster"
)

// counter describes one gated metric: how to read it and which direction
// is a regression.
type counter struct {
	name        string
	read        func(bench.Record) int64
	higherWorse bool
}

// counters lists the gated metrics: every gated row of the engine's
// counter table (cluster.Counter), then the serve experiment's two
// counters, which describe a load burst rather than one query. The request
// count of a sweep cell is fixed by its spec and the admission verdicts
// are deterministic per (spec, seed); latency percentiles and achieved RPS
// are wall-clock and stay informational.
var counters = gatedCounters()

func gatedCounters() []counter {
	var out []counter
	for c := range cluster.NumCounters {
		if c.Gate() != cluster.Informational {
			out = append(out, counter{c.Key(), func(r bench.Record) int64 { return r.Counts[c] }, c.Gate() == cluster.HigherIsWorse})
		}
	}
	return append(out,
		counter{"requests_issued", func(r bench.Record) int64 { return r.RequestsIssued }, true},
		counter{"admission_rejected", func(r bench.Record) int64 { return r.AdmissionRejected }, true})
}

// identity is the matching key of a record: every field that names the
// measured configuration, none that measures.
func identity(r bench.Record) string {
	s := fmt.Sprintf("%s|%s|complete=%v|%s|dims=%d|tuples=%d|exec=%d|kernel=%v|vec=%v|target=%d|aqe=%v|gate=%v|morsel=%v",
		r.Experiment, r.Dataset, r.Complete, r.Algorithm, r.Dimensions, r.Tuples, r.Executors,
		r.ColumnarKernel, r.VectorizedExprs, r.AdaptiveTargetRows, r.AdaptiveExchange, r.CostGate, r.MorselParallel)
	// Chaos parameters join the identity only when set, so baselines
	// predating fault injection keep their keys unchanged.
	if r.FaultRate != 0 || r.RetryBudget != 0 {
		s += fmt.Sprintf("|fault=%g|retries=%d", r.FaultRate, r.RetryBudget)
	}
	// Load-generator parameters likewise join only when set: a 2-client
	// serve cell never compares against an 8-client one.
	if r.Clients != 0 || r.TargetRPS != 0 {
		s += fmt.Sprintf("|clients=%d|rps=%g", r.Clients, r.TargetRPS)
	}
	if r.Variant != "" {
		s += "|" + r.Variant
	}
	return s
}

func load(path string) (*bench.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep bench.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed baseline report (required)")
		freshPath    = flag.String("fresh", "", "freshly generated report (required)")
		tolerance    = flag.Float64("tolerance", 0, "allowed fractional regression per counter (0 = exact)")
	)
	flag.Parse()
	if *baselinePath == "" || *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -baseline and -fresh are required")
		flag.Usage()
		os.Exit(2)
	}
	baseline, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if compare(baseline, fresh, *tolerance, os.Stdout) > 0 {
		os.Exit(1)
	}
}

// compare runs the gate and returns the number of regressions found.
func compare(baseline, fresh *bench.Report, tolerance float64, w io.Writer) int {
	// Group both record sets by identity, preserving emission order within
	// each group.
	group := func(rep *bench.Report) (map[string][]bench.Record, []string) {
		m := make(map[string][]bench.Record)
		var order []string
		for _, r := range rep.Records {
			k := identity(r)
			if _, seen := m[k]; !seen {
				order = append(order, k)
			}
			m[k] = append(m[k], r)
		}
		return m, order
	}
	base, baseOrder := group(baseline)
	cur, _ := group(fresh)

	regressions := 0
	improvements := 0
	var baseWall, freshWall float64
	fail := func(format string, args ...any) {
		fmt.Fprintf(w, "REGRESSION: "+format+"\n", args...)
		regressions++
	}

	for _, key := range baseOrder {
		bs := base[key]
		fs, ok := cur[key]
		if !ok {
			fail("%s: record missing from fresh report", key)
			continue
		}
		if len(bs) != len(fs) {
			fail("%s: record count changed (baseline %d, fresh %d) — regenerate the baseline", key, len(bs), len(fs))
			continue
		}
		for i := range bs {
			b, f := bs[i], fs[i]
			baseWall += b.WallSeconds
			freshWall += f.WallSeconds
			if b.Error != "" || f.Error != "" || b.TimedOut || f.TimedOut {
				fail("%s[%d]: errored or timed-out record (baseline err=%q t.o.=%v, fresh err=%q t.o.=%v)",
					key, i, b.Error, b.TimedOut, f.Error, f.TimedOut)
				continue
			}
			if b.ResultRows != f.ResultRows {
				fail("%s[%d]: result_rows %d -> %d (correctness drift)", key, i, b.ResultRows, f.ResultRows)
			}
			for _, c := range counters {
				bv, fv := c.read(b), c.read(f)
				if bv == fv {
					continue
				}
				worse := fv > bv == c.higherWorse
				if !worse {
					fmt.Fprintf(w, "improvement: %s[%d]: %s %d -> %d\n", key, i, c.name, bv, fv)
					improvements++
					continue
				}
				slack := tolerance * float64(bv)
				delta := float64(fv - bv)
				if !c.higherWorse {
					delta = float64(bv - fv)
				}
				if delta > slack {
					fail("%s[%d]: %s %d -> %d", key, i, c.name, bv, fv)
				}
			}
		}
	}
	for key := range cur {
		if _, ok := base[key]; !ok {
			fail("%s: record absent from baseline — regenerate the baseline", key)
		}
	}

	fmt.Fprintf(w, "benchdiff: %d record group(s), %d regression(s), %d improvement(s); wall %.3fs -> %.3fs (informational)\n",
		len(baseOrder), regressions, improvements, baseWall, freshWall)
	return regressions
}
