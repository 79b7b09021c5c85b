package bench

import (
	"encoding/json"
	"fmt"
	"strconv"

	"skysql/internal/cluster"
)

// Record is one measurement in machine-readable form, the unit of the
// skybench -json output. Future PRs append these documents to a
// BENCH_*.json trajectory to track performance across changes.
type Record struct {
	Experiment string `json:"experiment"`
	Dataset    string `json:"dataset"`
	Complete   bool   `json:"complete"`
	Algorithm  string `json:"algorithm"`
	Dimensions int    `json:"dimensions"`
	Tuples     int    `json:"tuples"`
	Executors  int    `json:"executors"`
	// Variant names the query shape when an experiment sweeps one over
	// otherwise identical specs (e.g. "d1<0.25"); part of a record's
	// identity in benchdiff.
	Variant        string  `json:"variant,omitempty"`
	ColumnarKernel bool    `json:"columnar_kernel"`
	WallSeconds    float64 `json:"wall_time_seconds"`
	PeakModelMB    float64 `json:"peak_model_mb"`
	// StageSeconds is the per-stage makespan breakdown in execution order.
	StageSeconds []float64 `json:"stage_seconds,omitempty"`
	// VectorizedExprs reports whether the vectorized expression engine was
	// enabled for the run.
	VectorizedExprs bool `json:"vectorized_exprs"`
	// AdaptiveTargetRows is the rows-per-partition target of adaptive
	// exchanges (0 = static executor-count partitioning, unless
	// AdaptiveExchange picked targets per exchange).
	AdaptiveTargetRows int `json:"adaptive_target_rows,omitempty"`
	// AdaptiveExchange reports cost-chosen adaptive partitioning (the
	// session default): targets picked per exchange by the cost model.
	AdaptiveExchange bool `json:"adaptive_exchange,omitempty"`
	// AdaptivePartitions lists the partition counts adaptive exchanges
	// chose, in execution order.
	AdaptivePartitions []int `json:"adaptive_partitions,omitempty"`
	// CostGate reports whether the decode-at-scan cost gate was active for
	// the run (false on boxed runs and on the pure kernel/vectorization
	// ablations, which pin the ungated path).
	CostGate bool `json:"cost_gate,omitempty"`
	// CostDecisions renders the cost-model decisions of the run, in
	// execution order. Informational: benchdiff does not gate on it.
	CostDecisions []string `json:"cost_decisions,omitempty"`
	// MorselParallel reports morsel-granular task splitting + the parallel
	// global-skyline kernel; part of a record's identity in benchdiff.
	MorselParallel bool `json:"morsel_parallel,omitempty"`
	// AchievedParallelism is busy/wall over the parallel morsel rounds.
	// Informational.
	AchievedParallelism float64 `json:"achieved_parallelism,omitempty"`
	// FaultRate and RetryBudget are the chaos-injection parameters of the
	// run (0 = no injection / no retry); part of a record's identity in
	// benchdiff so faulted cells only compare against faulted cells.
	FaultRate   float64 `json:"fault_rate,omitempty"`
	RetryBudget int     `json:"retry_budget,omitempty"`
	// DegradationLog lists the memory-governor escalations in order.
	DegradationLog []string `json:"degradation_log,omitempty"`
	// Clients and TargetRPS identify a serve-experiment cell (the load
	// generator's client count and aggregate request rate); both join a
	// record's identity in benchdiff, like the chaos fields.
	Clients   int     `json:"clients,omitempty"`
	TargetRPS float64 `json:"target_rps,omitempty"`
	// RequestsIssued counts requests the load generator sent; the
	// admission counters split them into admitted / queued-then-admitted /
	// rejected (HTTP 429). Requests and rejections are deterministic per
	// sweep shape — benchdiff gates on both.
	RequestsIssued    int64 `json:"requests_issued,omitempty"`
	AdmissionAdmitted int64 `json:"admission_admitted,omitempty"`
	AdmissionQueued   int64 `json:"admission_queued,omitempty"`
	AdmissionRejected int64 `json:"admission_rejected,omitempty"`
	// Latency percentiles and achieved throughput of the serve burst.
	// Wall-clock observations: informational, never gated.
	LatencyP50MS float64 `json:"latency_p50_ms,omitempty"`
	LatencyP95MS float64 `json:"latency_p95_ms,omitempty"`
	LatencyP99MS float64 `json:"latency_p99_ms,omitempty"`
	AchievedRPS  float64 `json:"achieved_rps,omitempty"`
	ResultRows   int     `json:"result_rows"`
	TimedOut     bool    `json:"timed_out"`
	Error        string  `json:"error,omitempty"`
	// Counts carries the run's execution counters, written and read under
	// the counter table's JSON keys (see MarshalJSON).
	Counts cluster.Counts `json:"-"`
}

// NewRecord flattens a measurement into a record tagged with the
// experiment it belongs to.
func NewRecord(experiment string, m Measurement) Record {
	r := Record{
		Experiment:          experiment,
		Dataset:             m.Spec.Dataset,
		Complete:            m.Spec.Complete,
		Algorithm:           m.Spec.Algorithm.Name,
		Dimensions:          m.Spec.Dimensions,
		Tuples:              m.Spec.Tuples,
		Executors:           m.Spec.Executors,
		Variant:             m.Spec.Variant,
		ColumnarKernel:      !m.Spec.NoKernel,
		WallSeconds:         m.Seconds(),
		PeakModelMB:         m.PeakModelMB,
		StageSeconds:        m.StageSeconds,
		VectorizedExprs:     !m.Spec.NoVector,
		AdaptiveTargetRows:  m.Spec.AdaptiveTarget,
		AdaptiveExchange:    m.Spec.AdaptiveDefault,
		AdaptivePartitions:  m.AdaptivePartitions,
		CostGate:            !m.Spec.NoCostGate && !m.Spec.NoVector && !m.Spec.NoKernel,
		CostDecisions:       m.CostDecisions,
		MorselParallel:      m.Spec.MorselParallel,
		AchievedParallelism: m.AchievedParallelism,
		FaultRate:           m.Spec.FaultRate,
		RetryBudget:         m.Spec.RetryBudget,
		DegradationLog:      m.DegradationLog,
		Clients:             m.Spec.Clients,
		TargetRPS:           m.Spec.TargetRPS,
		RequestsIssued:      m.RequestsIssued,
		AdmissionAdmitted:   m.AdmissionAdmitted,
		AdmissionQueued:     m.AdmissionQueued,
		AdmissionRejected:   m.AdmissionRejected,
		LatencyP50MS:        m.LatencyP50MS,
		LatencyP95MS:        m.LatencyP95MS,
		LatencyP99MS:        m.LatencyP99MS,
		AchievedRPS:         m.AchievedRPS,
		ResultRows:          m.ResultRows,
		TimedOut:            m.TimedOut,
		Counts:              m.Counts,
	}
	if m.Err != nil {
		r.Error = m.Err.Error()
	}
	return r
}

// MarshalJSON writes the record's fields followed by every counter of the
// counter table under its JSON key.
func (r Record) MarshalJSON() ([]byte, error) {
	type fields Record // no methods, so Marshal does not recurse
	b, err := json.Marshal(fields(r))
	if err != nil {
		return nil, err
	}
	b = b[:len(b)-1] // reopen the object; it always holds the fixed fields
	for c := range cluster.NumCounters {
		b = append(b, ',')
		b = strconv.AppendQuote(b, c.Key())
		b = append(b, ':')
		b = strconv.AppendInt(b, r.Counts[c], 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON reads the record's fields and its counters under their
// JSON keys; a counter absent from the document reads 0.
func (r *Record) UnmarshalJSON(data []byte) error {
	type fields Record
	if err := json.Unmarshal(data, (*fields)(r)); err != nil {
		return err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	r.Counts = cluster.Counts{}
	for c := range cluster.NumCounters {
		if v, ok := raw[c.Key()]; ok {
			if err := json.Unmarshal(v, &r.Counts[c]); err != nil {
				return fmt.Errorf("record key %q: %w", c.Key(), err)
			}
		}
	}
	return nil
}

// Report is the top-level document of the skybench -json output.
type Report struct {
	Scale          float64  `json:"scale"`
	Seed           int64    `json:"seed"`
	TimeoutSeconds float64  `json:"timeout_seconds"`
	Records        []Record `json:"records"`
}
