package bench

import (
	"fmt"
	"io"

	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/physical"
)

// runChaos measures the fault-tolerant task runtime: the distributed-
// complete plan executed under deterministic fault injection, swept over
// fault rate × per-task retry budget. Every cell must return exactly the
// rows of the fault-free baseline — the lineage contract retry depends on
// — and must finish without a permanent task failure, so the retry
// budgets here are deep enough that exhaustion is (deterministically)
// impossible at the swept rates. Injected-fault and retry counts are pure
// functions of (seed, plan), so benchdiff gates on them; the wall columns
// show what retried work costs in simulated makespan.
//
// A final section engages the memory governor instead: the same plan run
// under a budget 1.25× its observed peak must degrade (dropping columnar
// sidecars, then collapsing fan-out) yet still return the identical
// skyline. The step count is deterministic and benchdiff-gated.
func runChaos(cfg Config, w io.Writer) error {
	alg := core.Algorithm{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete}
	n := cfg.scaled(20000)
	const dims = 4
	// Morsel-granular tasks give injection a real key space to sample —
	// whole-partition scheduling runs so few tasks that low rates would
	// deterministically draw nothing.
	base := Spec{Dataset: "store_sales", Complete: true, Dimensions: dims,
		Tuples: n, Executors: 4, Algorithm: alg, MorselParallel: true}

	clean := cfg.Run(base)
	if clean.Err != nil {
		return fmt.Errorf("chaos baseline: %w", clean.Err)
	}

	rates := []float64{0.05, 0.15, 0.3}
	budgets := []int{6, 12}
	fmt.Fprintf(w, "chaos | dataset=store_sales tuples=%d dimensions=%d executors=4 algorithm=%s\n", n, dims, alg.Name)
	fmt.Fprintf(w, "fault-free baseline: %s s, %d rows\n", clean.Cell(), clean.ResultRows)
	fmt.Fprintf(w, "%-12s", "budget")
	for _, r := range rates {
		fmt.Fprintf(w, "%24s", fmt.Sprintf("rate=%.2f [s/flt/rty]", r))
	}
	fmt.Fprintln(w)
	for _, b := range budgets {
		fmt.Fprintf(w, "%-12s", fmt.Sprintf("retries=%d", b))
		for _, r := range rates {
			spec := base
			spec.FaultRate = r
			spec.RetryBudget = b
			m := cfg.Run(spec)
			if m.Err != nil {
				return fmt.Errorf("chaos rate=%.2f budget=%d: %w", r, b, m.Err)
			}
			if m.Counts[cluster.TasksFailed] != 0 {
				return fmt.Errorf("chaos rate=%.2f budget=%d: %d tasks failed permanently", r, b, m.Counts[cluster.TasksFailed])
			}
			if m.ResultRows != clean.ResultRows {
				fmt.Fprintf(w, "WARNING: rate=%.2f budget=%d returned %d rows, fault-free run %d\n",
					r, b, m.ResultRows, clean.ResultRows)
			}
			fmt.Fprintf(w, "%24s", fmt.Sprintf("%s/%d/%d", m.Cell(), m.Counts[cluster.InjectedFaults], m.Counts[cluster.TaskRetries]))
		}
		fmt.Fprintln(w)
	}

	// Memory-governor section: budget the same plan just above its peak so
	// the soft thresholds trip but the hard limit never does.
	spec := base
	spec.MemoryBudget = clean.Counts[cluster.PeakBytes] + clean.Counts[cluster.PeakBytes]/4
	spec.Variant = "budget=1.25xpeak"
	m := cfg.Run(spec)
	if m.Err != nil {
		return fmt.Errorf("chaos memory budget: %w", m.Err)
	}
	if m.ResultRows != clean.ResultRows {
		fmt.Fprintf(w, "WARNING: budgeted run returned %d rows, unbudgeted %d\n", m.ResultRows, clean.ResultRows)
	}
	fmt.Fprintf(w, "memory budget %d bytes (1.25x peak): %s s, %d degradation steps\n",
		spec.MemoryBudget, m.Cell(), m.Counts[cluster.DegradationSteps])
	for _, step := range m.DegradationLog {
		fmt.Fprintf(w, "  %s\n", step)
	}
	if m.Counts[cluster.DegradationSteps] == 0 {
		fmt.Fprintln(w, "WARNING: budget at 1.25x peak never degraded")
	}
	fmt.Fprintln(w)
	return nil
}
