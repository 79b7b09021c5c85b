// Command perfbench is the repository's end-to-end benchmark. It starts
// skysqld as a child process on loopback, loads seeded tables over
// POST /tables, drives one workload over the public HTTP API from a
// single load generator, checks every answer against an oracle of its
// own, and prints the end-to-end metrics. With -trace 1 it then replays
// the same inputs in process with spans around each layer's entry points
// and prints the per-layer metrics instead. See README.md.
//
// Build and run through run.sh, which builds skysqld from the same tree:
//
//	bash perfbench/run.sh --workload adhoc --seed 1 --seconds 15 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets the server up; setup_s is the
// median.
const setupReps = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records what a report was measured on, so numbers from
// different machines or trees are never read as one trajectory.
type stamp struct {
	Workload       string         `json:"workload"`
	Seed           int64          `json:"seed"`
	Seconds        int            `json:"seconds"`
	Commit         string         `json:"commit"`
	SourceSHA256   string         `json:"source_sha256"`
	GoVersion      string         `json:"go_version"`
	GOOS           string         `json:"goos"`
	GOARCH         string         `json:"goarch"`
	NumCPU         int            `json:"num_cpu"`
	GOMAXPROCS     int            `json:"gomaxprocs"`
	Connections    int            `json:"connections"`
	TableRows      map[string]int `json:"table_rows"`
	CacheMB        int            `json:"result_cache_mb"`
	NominalRate    float64        `json:"nominal_rate_rps,omitempty"`
	LatencyLimitMS float64        `json:"latency_limit_ms,omitempty"`
	LateLimitMS    float64        `json:"late_limit_ms,omitempty"`
}

func main() {
	// The load generator shares the machine with skysqld; collecting its
	// own garbage less often keeps it off the cores the server needs.
	debug.SetGCPercent(200)
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "adhoc, serve-hot or ingest-mix")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 15, "measured seconds")
		trace   = flag.Int("trace", 0, "1: replay in process with spans and report per-layer metrics")
		bin     = flag.String("skysqld", "", "skysqld binary built from this tree")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for reports and spans")
	)
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -skysqld, -seconds >= 1 and -trace 0|1; use run.sh")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	st := newStamp(w, *seed, *seconds, *bin)
	rep, err := measure(w, *bin, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	full := map[string]any{"stamp": st, "end_to_end": rep.endToEnd, "error_ratio": rep.errorRatio,
		"mismatches": rep.mismatches}
	if *trace == 1 {
		// The replay holds two sessions in this process: collect at the
		// default pace to keep its memory small.
		debug.SetGCPercent(100)
		layers, spans, err := traceRun(w, rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
			return 1
		}
		res.Metrics = layers
		full["per_layer"] = layers
		if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed)), spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if err := writeJSON(filepath.Join(*outDir, fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, *seed, *trace)), full); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(st, rep, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// report is what the untraced run measured.
type report struct {
	correct    bool
	mismatches []string
	attempted  int
	failed     int
	errorRatio float64
	endToEnd   map[string]metric
	timed      []*sample // the measured operations, in send order
	late       float64   // p95 open-loop lateness, ms
	discarded  int       // serve-hot windows discarded for lateness
	ladder     []ladderStep
	sloRPS     float64 // highest passing ladder rate
	appendP95  float64 // ms
}

// measure runs the untraced benchmark: set-up (repeated), the timed
// window, then the answer check. ladder gives half of a serve-hot window
// to the rate ladder.
func measure(w *workload, bin string, dur time.Duration, ladder bool) (*report, error) {
	conns := runtime.NumCPU()
	client := newClient(conns)
	defer client.Transport.(*http.Transport).CloseIdleConnections()
	rep := &report{correct: true, endToEnd: map[string]metric{}}

	if err := crossCheckOracle(w.crossCheck, crossCheckRow); err != nil {
		rep.correct = false
		rep.mismatches = append(rep.mismatches, err.Error())
	}

	bodies := make([][]byte, len(w.tables))
	for i, t := range w.tables {
		bodies[i] = tableBody(t)
	}
	ans := &answers{dedup: w.name != "ingest-mix", seen: map[*query][]byte{}}
	var (
		srv    *child
		setups []float64
		warm   []*sample
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var buf bytes.Buffer
	for r := 0; r < setupReps; r++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(bin, client); err != nil {
			return nil, err
		}
		for i, t := range w.tables {
			status, body, err := post(client, srv.base+"/tables", bodies[i], &buf)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("loading table %s: HTTP %d %v %s", t.name, status, err, body)
			}
		}
		for _, q := range w.warm {
			s := do(client, srv.base, &op{kind: opQuery, q: q}, ans, time.Now(), &buf)
			if !s.ok() {
				return nil, fmt.Errorf("warm-up query %q: HTTP %d %v %s", q.sql, s.status, s.err, s.body)
			}
			warm = append(warm, s)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var start, end time.Time
	isQuery := func(s *sample) bool { return s.op.kind == opQuery }
	var discarded []*sample // answers of invalid serve-hot windows, still checked
	if w.name == "serve-hot" {
		// A window in which the generator fell behind measures the
		// machine, not the server: it is discarded and run again, at most
		// lateAttempts windows in all.
		for attempt := 1; ; attempt++ {
			rep.timed, start, end, rep.ladder = serveHot(w, client, srv.base, ans, conns, dur, ladder)
			lates := make([]float64, len(rep.timed))
			for i, s := range rep.timed {
				lates[i] = ms(s.late)
			}
			rep.late = quantile(lates, 0.95)
			if rep.late <= lateLimit {
				break
			}
			msg := fmt.Sprintf("the open-loop generator ran %.2f ms late at p95 (limit %.0f ms)", rep.late, lateLimit)
			if attempt == lateAttempts {
				return nil, fmt.Errorf("run invalid: %d windows in a row were invalid; in the last, %s", lateAttempts, msg)
			}
			fmt.Fprintln(os.Stderr, "perfbench: discarding an invalid window:", msg)
			rep.discarded++
			discarded = append(discarded, rep.timed...)
			for _, st := range rep.ladder {
				discarded = append(discarded, st.samples...)
			}
		}
		for _, st := range rep.ladder {
			if st.pass && st.rate > rep.sloRPS {
				rep.sloRPS = st.rate
			}
		}
	} else {
		start = time.Now()
		rep.timed = closedLoop(client, srv.base, w.next, ans, start.Add(dur))
		end = time.Now()
	}
	peak, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	srv.stop()
	srv = nil

	all := append(append(append([]*sample(nil), warm...), discarded...), rep.timed...)
	for _, st := range rep.ladder {
		all = append(all, st.samples...)
	}
	var c *checker
	if w.name == "ingest-mix" {
		c = verifyIngest(w, warm, rep.timed)
	} else {
		c = verifyStatic(all, conns)
	}
	rep.mismatches = append(rep.mismatches, c.mismatches...)
	if len(rep.mismatches) > 0 {
		rep.correct = false
	}
	rep.attempted = len(all)
	rep.failed = errorCount(all)
	rep.errorRatio = float64(rep.failed) / float64(rep.attempted)

	qat, qlat := latencies(rep.timed, isQuery)
	aat, alat := latencies(rep.timed, func(s *sample) bool { return s.op.kind == opAppend })
	oat, olat := latencies(rep.timed, func(*sample) bool { return true })
	if len(qlat) < minWindowSamples || len(alat) < minWindowSamples {
		return nil, fmt.Errorf("only %d queries and %d appends completed; p95 needs %d of each (raise --seconds)",
			len(qlat), len(alat), minWindowSamples)
	}
	rep.appendP95 = windowed(aat, alat, start, end, p95)
	rep.endToEnd = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"query_p50_ms":   {windowed(qat, qlat, start, end, p50), "ms"},
		"query_p95_ms":   {windowed(qat, qlat, start, end, p95), "ms"},
		"throughput_qps": {windowed(oat, olat, start, end, perSec), "ops/s"},
		"append_p50_ms":  {windowed(aat, alat, start, end, p50), "ms"},
		"peak_rss_mb":    {peak, "MiB"},
	}
	return rep, nil
}

// ladderStep is one rate of the serve-hot ladder.
type ladderStep struct {
	rate    float64
	p95     float64
	pass    bool
	samples []*sample
}

// serveHot runs the nominal open-loop phase and returns its samples and
// span. With ladder, the nominal phase gets half the budget and a rate
// ladder climbs in the rest.
// Ladder rates lie on a fixed grid, nominalRate x 1.05^k: the climb
// starts at twice the nominal rate and moves four grid steps (+22%) at a
// time until a rate misses the latency limit, then returns to the last
// passing rate and moves one grid step (+5%) at a time. A step lasts one
// second and passes when its p95 (from due times) meets the limit and no
// request failed; a failing rate is run once more before the climb acts
// on it, so one burst of machine noise does not end the climb.
func serveHot(w *workload, c *http.Client, base string, a *answers, conns int, dur time.Duration, ladder bool) ([]*sample, time.Time, time.Time, []ladderStep) {
	deadline := time.Now().Add(dur)
	share := 1.0
	if ladder {
		share = 0.5
	}
	ops := make([]*op, int(nominalRate*share*dur.Seconds()))
	for i := range ops {
		ops[i] = w.hotOp(i, true)
	}
	start := time.Now()
	nominal := openLoop(c, base, ops, nominalRate, conns, a)
	end := time.Now()

	const stepSecs = 1.0
	var steps []ladderStep
	k, stride, best, retried := 15, 4, -1, false
	for ladder && k >= 0 && time.Now().Add(stepSecs*time.Second).Before(deadline) {
		rate := nominalRate * math.Pow(1.05, float64(k))
		ops := make([]*op, int(rate*stepSecs))
		for i := range ops {
			ops[i] = w.hotOp(i, false)
		}
		samples := openLoop(c, base, ops, rate, conns, a)
		lat := make([]float64, len(samples))
		pass := true
		for i, s := range samples {
			lat[i] = ms(s.lat)
			pass = pass && s.ok()
		}
		st := ladderStep{rate: rate, p95: quantile(lat, 0.95), samples: samples}
		st.pass = pass && st.p95 <= latencyLimit
		steps = append(steps, st)
		if !st.pass && !retried {
			retried = true
			continue
		}
		retried = false
		switch {
		case st.pass:
			best = k
			k += stride
		case best < 0:
			k -= stride // the first rate already fails: walk down
		case stride > 1:
			stride = 1
			k = best + 1
		default:
			k = -1 // the fine climb found the first failing rate
		}
	}
	return nominal, start, end, steps
}

func newStamp(w *workload, seed int64, seconds int, bin string) stamp {
	st := stamp{
		Workload: w.name, Seed: seed, Seconds: seconds,
		Commit: "unknown", GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Connections: 1, TableRows: map[string]int{}, CacheMB: cacheMB,
	}
	if w.name == "serve-hot" {
		st.Connections = runtime.NumCPU()
		st.NominalRate, st.LatencyLimitMS, st.LateLimitMS = nominalRate, latencyLimit, lateLimit
	}
	for _, t := range w.tables {
		st.TableRows[t.name] = len(t.rows)
	}
	if info, err := buildinfo.ReadFile(bin); err == nil {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				st.Commit += "+modified"
			}
		}
	}
	st.SourceSHA256 = sourceDigest(".")
	return st
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// dot-directories), naming the code measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// printReport prints the stamp and every metric by name with its unit,
// ahead of the JSON result line.
func printReport(st stamp, rep *report, res result) {
	b, _ := json.Marshal(st) // a struct of plain fields always marshals
	fmt.Println("# stamp " + string(b))
	fmt.Printf("# answers: %d checked requests, %d mismatches\n", rep.attempted, len(rep.mismatches))
	for i, m := range rep.mismatches {
		if i == 5 {
			fmt.Printf("#   ... %d more\n", len(rep.mismatches)-5)
			break
		}
		fmt.Println("#   mismatch: " + m)
	}
	if d := describeFailure(rep.timed); d != "" {
		fmt.Println("# first failure: " + d)
	}
	if st.LateLimitMS > 0 {
		fmt.Printf("# open-loop generator lateness p95 %.3f ms (limit %.0f ms), %d window(s) discarded\n",
			rep.late, st.LateLimitMS, rep.discarded)
	}
	for _, l := range rep.ladder {
		fmt.Printf("# ladder %.0f req/s: p95 %.2f ms pass=%v\n", l.rate, l.p95, l.pass)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14.6g %s\n", "error_ratio", rep.errorRatio, "fraction")
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

var errSelfCheck = errors.New("layer-dominance self-check failed")
