package cluster

import (
	"fmt"
	"strings"
	"time"
)

// Counter names one scalar execution counter of a query run. Every
// counter is declared once, as a row of the counter table below; Metrics,
// EXPLAIN, the skysql shell, skybench records and the benchdiff gate all
// iterate the table instead of naming counters one by one.
type Counter int

const (
	StagesExecuted Counter = iota
	RowsShuffled
	PeakBytes
	BatchesDecoded
	VectorizedBatches
	DominanceTests
	Comparisons
	MorselsExecuted
	Steals
	TaskRetries
	TasksFailed
	InjectedFaults
	DegradationSteps
	SegmentsPruned
	SegmentsSpilled
	CacheHits
	CacheMisses
	CacheEvictions
	IncrementalUpgrades

	// NumCounters is the number of rows in the counter table.
	NumCounters
)

// Gate is a counter's treatment by the benchdiff regression gate.
type Gate int

const (
	// Informational counters are reported but never gated: they depend on
	// timing, budgets or data sizes the gate does not pin.
	Informational Gate = iota
	// HigherIsWorse counters regress when they rise.
	HigherIsWorse
	// LowerIsWorse counters regress when they fall.
	LowerIsWorse
)

// counterDef is one row of the counter table.
type counterDef struct {
	key   string // skybench JSON key
	label string // EXPLAIN / shell label
	gate  Gate
	// read, when set, derives the value from storage kept elsewhere;
	// otherwise the counter is a plain atomic slot bumped by Metrics.Add.
	read func(*Metrics) int64
}

// counterDefs is the counter table. A gated counter must be a pure
// function of (query sequence, data, configuration) in simulated mode —
// never wall clock or worker placement — so a drift means the plan or the
// runtime changed.
var counterDefs = [NumCounters]counterDef{
	// Scheduled task rounds; stage fusion runs a narrow chain in one.
	StagesExecuted: {"stages_executed", "stages executed", HigherIsWorse, nil},
	// Rows moved through exchanges (broadcasts count once per executor).
	RowsShuffled: {"rows_shuffled", "rows shuffled", HigherIsWorse, nil},
	// Highest concurrently materialized byte count, kept by Alloc.
	PeakBytes: {"peak_bytes", "peak bytes", HigherIsWorse,
		func(m *Metrics) int64 { return m.peakBytes.Load() }},
	// Columnar decodes: one per input partition on a sidecar-carrying
	// local→global plan, whose exchanges and global pass are decode-free.
	BatchesDecoded: {"batches_decoded", "batches decoded", HigherIsWorse,
		func(m *Metrics) int64 { return m.Sky.BatchesDecoded() }},
	// Partition passes served by the vectorized expression engine; fewer
	// means expressions fell back to the boxed row loop.
	VectorizedBatches: {"vectorized_batches", "vectorized batches", LowerIsWorse, nil},
	DominanceTests: {"dominance_tests", "dominance tests", Informational,
		func(m *Metrics) int64 { return m.Sky.DominanceTests() }},
	Comparisons: {"comparisons", "comparisons", Informational,
		func(m *Metrics) int64 { return m.Sky.Comparisons() }},
	// Morsel tasks depend only on the data layout and the executor budget
	// (sizing never consults the real core count); whole partitions
	// scheduled without splitting are not morsels.
	MorselsExecuted: {"morsels_executed", "morsels executed", HigherIsWorse, nil},
	// Tasks run by a worker other than their home worker: the real pool's
	// placement depends on timing.
	Steals: {"steals", "steals", Informational, nil},
	// Fault tolerance: injection decisions are pure functions of the task
	// key. tasks_failed is gated at zero by the error check instead (an
	// errored record already fails the gate).
	TaskRetries:      {"task_retries", "task retries", HigherIsWorse, nil},
	TasksFailed:      {"tasks_failed", "tasks failed", Informational, nil},
	InjectedFaults:   {"injected_faults", "injected faults", HigherIsWorse, nil},
	DegradationSteps: {"degradation_steps", "degradation steps", HigherIsWorse, nil},
	// Zone-map pruning is a pure function of (footer, predicate): fewer
	// pruned segments means the scan decoded work it used to skip. Spills
	// depend only on the partition layout at the budgeted gather.
	SegmentsPruned:  {"segments_pruned", "segments pruned", LowerIsWorse, nil},
	SegmentsSpilled: {"segments_spilled", "segments spilled", HigherIsWorse, nil},
	// Result-cache outcomes are pure functions of the seeded query
	// sequence; evictions depend on entry sizes against the byte budget.
	CacheHits:           {"cache_hits", "cache hits", LowerIsWorse, nil},
	CacheMisses:         {"cache_misses", "cache misses", HigherIsWorse, nil},
	CacheEvictions:      {"cache_evictions", "cache evictions", Informational, nil},
	IncrementalUpgrades: {"incremental_upgrades", "incremental upgrades", LowerIsWorse, nil},
}

// Key returns the counter's skybench JSON key.
func (c Counter) Key() string { return counterDefs[c].key }

// Label returns the counter's display label.
func (c Counter) Label() string { return counterDefs[c].label }

// Gate returns the counter's benchdiff treatment.
func (c Counter) Gate() Gate { return counterDefs[c].gate }

// Counts is a snapshot of every counter, indexed by Counter.
type Counts [NumCounters]int64

// Add adds n to counter c, which must be a plain counter (one without a
// read function in the table).
func (m *Metrics) Add(c Counter, n int64) {
	if m != nil && n != 0 {
		m.counts[c].Add(n)
	}
}

// Get returns the current value of counter c (0 on a nil Metrics).
func (m *Metrics) Get(c Counter) int64 {
	if m == nil {
		return 0
	}
	if read := counterDefs[c].read; read != nil {
		return read(m)
	}
	return m.counts[c].Load()
}

// Counts returns a snapshot of every counter.
func (m *Metrics) Counts() Counts {
	var out Counts
	for c := range NumCounters {
		out[c] = m.Get(c)
	}
	return out
}

// Format renders the run for EXPLAIN and the shell: every non-zero counter
// as "label: value", the achieved parallelism, then the list-valued
// sections — stage times, cost decisions, worker busy time and degradation
// steps — each only when non-empty.
func (m *Metrics) Format() string {
	if m == nil {
		return ""
	}
	var sb strings.Builder
	for c := range NumCounters {
		if v := m.Get(c); v != 0 {
			fmt.Fprintf(&sb, "%s: %d\n", c.Label(), v)
		}
	}
	if ap := m.AchievedParallelism(); ap > 0 {
		fmt.Fprintf(&sb, "achieved parallelism: %.2fx\n", ap)
	}
	if s := m.FormatStageTimes(); s != "" {
		sb.WriteString("stage times:\n" + s)
	}
	if s := m.FormatCostDecisions(); s != "" {
		sb.WriteString("cost decisions:\n" + s)
	}
	if busy := m.WorkerBusy(); len(busy) > 0 {
		parts := make([]string, len(busy))
		for i, d := range busy {
			parts[i] = d.Round(time.Microsecond).String()
		}
		sb.WriteString("worker busy: [" + strings.Join(parts, " ") + "]\n")
	}
	if steps := m.Degradations(); len(steps) > 0 {
		sb.WriteString("degradations:\n")
		for _, st := range steps {
			sb.WriteString("  " + st + "\n")
		}
	}
	return sb.String()
}
