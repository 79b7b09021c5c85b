package bench

import (
	"fmt"
	"io"

	"skysql/internal/cluster"
	"skysql/internal/core"
	"skysql/internal/physical"
)

// runParallel measures the morsel-driven parallel runtime: the same
// distributed-complete plan executed with morsel-granular tasks + the
// parallel global kernel ("morsel") against whole-partition scheduling
// ("whole"), swept over worker counts on three synthetic workloads whose
// parallelism profiles differ:
//
//   - correlated: tiny skyline, the narrow pipeline dominates;
//   - anti-correlated: huge skyline, the global window pass dominates —
//     the serial hot spot the parallel kernel twins attack;
//   - skewed: a 70/30 correlated/anti-correlated mixture whose contiguous
//     partitioning yields one hot partition among cheap ones — the case
//     where morsel stealing beats whole-partition scheduling.
//
// Runs use simulated time (the harness substrate), so the wall columns are
// the makespans the greedy assignment model predicts for each worker
// count; morsel counts are deterministic and benchdiff-gated, wall and
// steals are informational.
func runParallel(cfg Config, w io.Writer) error {
	workers := []int{1, 2, 4, 8}
	alg := core.Algorithm{Name: "distributed complete", Strategy: physical.SkylineDistributedComplete}
	const dims = 4
	type variant struct {
		name   string
		morsel bool
	}
	variants := []variant{{"morsel", true}, {"whole", false}}
	for _, dataset := range []string{"synthetic_correlated", "synthetic_anti-correlated", "synthetic_skewed"} {
		n := cfg.scaled(10000)
		fmt.Fprintf(w, "parallel | dataset=%s tuples=%d dimensions=%d algorithm=%s\n", dataset, n, dims, alg.Name)
		fmt.Fprintf(w, "%-10s", "variant")
		for _, wk := range workers {
			fmt.Fprintf(w, "%12s", fmt.Sprintf("w=%d [s]", wk))
		}
		fmt.Fprintln(w)
		cells := make(map[string][]Measurement)
		for _, v := range variants {
			row := make([]Measurement, len(workers))
			fmt.Fprintf(w, "%-10s", v.name)
			for wi, wk := range workers {
				m := cfg.Run(Spec{Dataset: dataset, Complete: true, Dimensions: dims,
					Tuples: n, Executors: wk, Algorithm: alg, MorselParallel: v.morsel})
				if m.Err != nil {
					return fmt.Errorf("parallel %s/%s/w=%d: %w", dataset, v.name, wk, m.Err)
				}
				row[wi] = m
				fmt.Fprintf(w, "%12s", m.Cell())
			}
			fmt.Fprintln(w)
			cells[v.name] = row
		}
		// Morsel-runtime counters of the morsel row (whole rows schedule
		// no morsels by definition).
		fmt.Fprintf(w, "%-10s", "morsels")
		for _, m := range cells["morsel"] {
			fmt.Fprintf(w, "%12d", m.Counts[cluster.MorselsExecuted])
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-10s", "steals")
		for _, m := range cells["morsel"] {
			fmt.Fprintf(w, "%12d", m.Counts[cluster.Steals])
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-10s", "parallel")
		for _, m := range cells["morsel"] {
			fmt.Fprintf(w, "%12s", fmt.Sprintf("%.2fx", m.AchievedParallelism))
		}
		fmt.Fprintln(w)
		// Scaling summary: morsel speedup over one worker, and morsel vs
		// whole-partition scheduling at each worker count.
		fmt.Fprintf(w, "%-10s", "speedup")
		base := cells["morsel"][0].Seconds()
		for _, m := range cells["morsel"] {
			s := 0.0
			if m.Seconds() > 0 {
				s = base / m.Seconds()
			}
			fmt.Fprintf(w, "%12s", fmt.Sprintf("%.2fx", s))
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-10s", "vs whole")
		for wi := range workers {
			s := 0.0
			if cells["morsel"][wi].Seconds() > 0 {
				s = cells["whole"][wi].Seconds() / cells["morsel"][wi].Seconds()
			}
			fmt.Fprintf(w, "%12s", fmt.Sprintf("%.2fx", s))
		}
		fmt.Fprintln(w)
		// Sanity: morsel and whole scheduling must agree on the skyline.
		for wi := range workers {
			if mr, wr := cells["morsel"][wi].ResultRows, cells["whole"][wi].ResultRows; mr != wr {
				fmt.Fprintf(w, "WARNING: result size mismatch at w=%d: morsel returned %d rows, whole %d\n",
					workers[wi], mr, wr)
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
