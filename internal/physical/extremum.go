package physical

import (
	"fmt"
	"sync"
	"sync/atomic"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// ExtremumFilterExec executes the optimizer's single-dimension skyline
// rewrite (§5.4): a distributed O(n) pass computes the global minimum (or
// maximum) of the expression, then a second distributed pass keeps the
// rows attaining it. Rows whose expression is NULL are dropped, matching
// complete-skyline semantics (the rule only fires for non-nullable or
// COMPLETE inputs).
type ExtremumFilterExec struct {
	E   expr.Expr
	Max bool
	// DisableVector forces the boxed row-at-a-time expression evaluation in
	// both passes even when a partition arrives with a columnar sidecar
	// whose dense columns could serve E (Options.DisableVectorizedExprs).
	DisableVector bool
	// DisableKernel turns off the decode-once column cache: with it set,
	// the second pass re-evaluates E per row, the pre-kernel behaviour
	// (Options.DisableColumnarKernel).
	DisableKernel bool
	Child         Operator
}

func (x *ExtremumFilterExec) Schema() *types.Schema { return x.Child.Schema() }
func (x *ExtremumFilterExec) Children() []Operator  { return []Operator{x.Child} }
func (x *ExtremumFilterExec) String() string {
	dir := "MIN"
	if x.Max {
		dir = "MAX"
	}
	return fmt.Sprintf("ExtremumFilterExec %s(%s)", dir, x.E)
}

func (x *ExtremumFilterExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	return x.ExecuteFused(ctx, nil)
}

// ExecuteFused implements StageSource: the operator is a pipeline breaker
// (the global extremum needs all partitions), but its second pass is a
// narrow filter, so the fused tail of the stage above runs inside that
// same task round instead of costing an extra round and an intermediate
// materialization — and the kept slice of an incoming columnar sidecar is
// threaded through to the tail, so a fused chain above stays columnar. A
// nil tail reproduces Execute exactly.
//
// Following the decode-once discipline of the columnar dominance kernel,
// pass 1 caches the evaluated expression column per partition and pass 2
// filters against the cache instead of re-evaluating E per row — each
// tuple is decoded exactly once across both distributed passes. Partitions
// arriving with a columnar sidecar whose dense columns can serve E
// evaluate the column on the vectorized expression engine instead of the
// boxed row loop (bit-identical values; refusals fall back per partition).
func (x *ExtremumFilterExec) ExecuteFused(ctx *cluster.Context, tail cluster.ColumnarFn) (*cluster.Dataset, error) {
	in, err := x.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	canVec := !x.DisableVector && !x.DisableKernel && expr.CanVectorize(x.E, x.Child.Schema())
	// Pass 1: per-partition extrema, merged into the global extremum.
	var (
		mu   sync.Mutex
		best types.Value
		seen bool
	)
	var cols [][]types.Value
	var cacheBytes atomic.Int64
	if !x.DisableKernel {
		cols = make([][]types.Value, len(in.Parts))
	}
	merge := func(localBest types.Value, localSeen bool) {
		if !localSeen {
			return
		}
		mu.Lock()
		if !seen {
			best, seen = localBest, true
		} else if c, ok := types.CompareValues(localBest, best); ok && ((x.Max && c > 0) || (!x.Max && c < 0)) {
			best = localBest
		}
		mu.Unlock()
	}
	if _, err := ctx.MapPartitionsColumnar(in, func(pi int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		if canVec && b != nil && b.Len() == len(part) {
			if col, ok, err := x.vectorPass1(ctx, b); err != nil {
				return nil, nil, err
			} else if ok {
				if cols != nil {
					cols[pi] = col
					cacheBytes.Add(int64(len(col)) * 40)
				}
				localBest, localSeen := types.Null, false
				for _, v := range col {
					if v.IsNull() {
						continue
					}
					if !localSeen {
						localBest, localSeen = v, true
						continue
					}
					if c, ok := types.CompareValues(v, localBest); ok && ((x.Max && c > 0) || (!x.Max && c < 0)) {
						localBest = v
					}
				}
				merge(localBest, localSeen)
				return nil, nil, nil
			}
		}
		var col []types.Value
		var colBytes int64
		if cols != nil {
			col = make([]types.Value, len(part))
		}
		var localBest types.Value
		localSeen := false
		for ri, row := range part {
			v, err := x.E.Eval(row)
			if err != nil {
				return nil, nil, err
			}
			if col != nil {
				col[ri] = v
				colBytes += v.MemSize()
			}
			if v.IsNull() {
				continue
			}
			if !localSeen {
				localBest, localSeen = v, true
				continue
			}
			c, ok := types.CompareValues(v, localBest)
			if !ok {
				return nil, nil, fmt.Errorf("physical: extremum over incomparable kinds")
			}
			if (x.Max && c > 0) || (!x.Max && c < 0) {
				localBest = v
			}
		}
		if col != nil {
			cols[pi] = col // tasks write disjoint slots; no lock needed
			cacheBytes.Add(colBytes)
		}
		merge(localBest, localSeen)
		return nil, nil, nil
	}); err != nil {
		return nil, err
	}
	// The cached column is materialized driver-side between the passes:
	// account for it like any other live dataset so peak-bytes regression
	// contracts see it.
	if ctx.Metrics != nil && cacheBytes.Load() > 0 {
		ctx.Metrics.Alloc(cacheBytes.Load())
		defer ctx.Metrics.Free(cacheBytes.Load())
	}
	if !seen {
		out := &cluster.Dataset{}
		charge(ctx, out, in)
		return out, nil
	}
	// Pass 2: keep rows attaining the extremum, then apply the fused tail
	// (if any) within the same task round; an aligned sidecar follows the
	// kept indices into the tail.
	out, err := ctx.MapPartitionsColumnar(in, func(i int, part []types.Row, b *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		if b != nil && b.Len() != len(part) {
			b = nil
		}
		var keep []types.Row
		var idx []int
		for ri, row := range part {
			var v types.Value
			if cols != nil {
				v = cols[i][ri]
			} else {
				var err error
				v, err = x.E.Eval(row)
				if err != nil {
					return nil, nil, err
				}
			}
			if v.IsNull() {
				continue
			}
			if c, ok := types.CompareValues(v, best); ok && c == 0 {
				keep = append(keep, row)
				if b != nil {
					idx = append(idx, ri)
				}
			}
		}
		if b != nil {
			b = b.Select(idx)
		}
		if tail != nil {
			return tail(i, keep, b)
		}
		return keep, b, nil
	})
	if err != nil {
		return nil, err
	}
	charge(ctx, out, in)
	return out, nil
}

// vectorPass1 evaluates E over the partition's sidecar on the vectorized
// engine, materializing the boxed column pass 2 filters against. ok=false
// (runtime refusal) leaves the partition to the boxed loop.
func (x *ExtremumFilterExec) vectorPass1(ctx *cluster.Context, b *skyline.Batch) ([]types.Value, bool, error) {
	cols := newBatchColumns(b)
	ve := expr.NewVectorEvaluator(cols)
	vals, nulls, err := ve.EvalNumeric(x.E)
	if err == expr.ErrNotVectorized {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	release := chargeScratch(ctx, ve, cols)
	ctx.Metrics.Add(cluster.VectorizedBatches, 1)
	col := expr.MaterializeNumeric(x.E.DataType(), vals, nulls)
	release()
	return col, true, nil
}
