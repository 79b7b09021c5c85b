package physical

import (
	"fmt"
	"math/rand"
	"testing"

	"skysql/internal/catalog"
	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/storage"
	"skysql/internal/types"
)

// segmentTwinPlans builds the same filtered-skyline logical plan twice:
// once over an in-memory table and once over its segment-backed twin
// (same rows, same order, segRows rows per segment). Column a ascends
// 0..nRows-1, so each segment covers a tight a-range and the filter
// a < cut provably empties every segment past the cut — the clustering a
// real ingest would apply for a range-filtered column.
func segmentTwinPlans(t *testing.T, name string, nRows, segRows int, cut int64) (mem, seg *plan.SkylineOperator) {
	t.Helper()
	r := rand.New(rand.NewSource(43))
	data := make([][]int64, nRows)
	for i := range data {
		data[i] = []int64{int64(i), int64(r.Intn(40))}
	}
	memTab := intTable(t, name, []string{"a", "b"}, data)
	store, err := storage.FromRows(memTab.Rows, memTab.Schema, "", name, segRows)
	if err != nil {
		t.Fatal(err)
	}
	segTab := catalog.NewSegmentTable(name, store)

	build := func(tab *catalog.Table) *plan.SkylineOperator {
		cond := expr.NewBinary(expr.OpLt,
			expr.NewBoundRef(0, "a", types.KindInt, false),
			expr.NewLiteral(types.Int(cut)))
		dims := []*expr.SkylineDimension{
			expr.NewSkylineDimension(expr.NewBoundRef(0, "a", types.KindInt, false), expr.SkyMin),
			expr.NewSkylineDimension(expr.NewBoundRef(1, "b", types.KindInt, false), expr.SkyMax),
		}
		return plan.NewSkylineOperator(false, false, dims,
			plan.NewFilter(cond, plan.NewScan(tab, name)))
	}
	return build(memTab), build(segTab)
}

// TestSegmentScanContractAllStrategies is the standing contract of the
// segment storage layer: a segment-backed scan — zone-map pruning
// included — must be bit-identical to the in-memory scan of the same
// rows, across every SkylineStrategy × fusion × kernel × vectorization
// ablation, and the pruning must actually fire (the filter cut lies well
// inside the clustered range, so trailing segments are provably empty).
func TestSegmentScanContractAllStrategies(t *testing.T) {
	const executors = 4
	strategies := []SkylineStrategy{
		SkylineAuto, SkylineDistributedComplete, SkylineNonDistributedComplete,
		SkylineDistributedIncomplete, SkylineSFS, SkylineDivideAndConquer,
		SkylineGridComplete, SkylineAngleComplete, SkylineZorderComplete,
		SkylineCostBased,
	}
	ablations := []struct {
		name  string
		opts  Options
		fused bool
	}{
		{"full", Options{}, true},
		{"unfused", Options{}, false},
		{"boxed-kernel", Options{DisableColumnarKernel: true}, true},
		{"boxed-exprs", Options{DisableVectorizedExprs: true}, true},
	}
	for _, st := range strategies {
		for _, ab := range ablations {
			label := fmt.Sprintf("%v/%s", st, ab.name)
			memPlan, segPlan := segmentTwinPlans(t, fmt.Sprintf("sc_%v_%s", st, ab.name), 200, 25, 60)
			opts := ab.opts
			opts.Strategy = st

			memOp, err := planner(ab.fused)(memPlan, opts)
			if err != nil {
				t.Fatalf("%s: plan memory: %v", label, err)
			}
			mctx := cluster.NewContext(executors)
			memRows, err := Execute(memOp, mctx)
			if err != nil {
				t.Fatalf("%s: execute memory: %v", label, err)
			}

			segOp, err := planner(ab.fused)(segPlan, opts)
			if err != nil {
				t.Fatalf("%s: plan segments: %v", label, err)
			}
			sctx := cluster.NewContext(executors)
			segRows, err := Execute(segOp, sctx)
			if err != nil {
				t.Fatalf("%s: execute segments: %v", label, err)
			}

			assertSameRows(t, "memory vs segments "+label, memRows, segRows)
			if len(memRows) == 0 {
				t.Fatalf("%s: empty skyline proves nothing", label)
			}
			if got := sctx.Metrics.SegmentsPruned(); ab.fused && got == 0 {
				t.Errorf("%s: segment scan pruned nothing — a < 60 over 8 clustered segments must skip the tail", label)
			}
			if got := mctx.Metrics.SegmentsPruned(); got != 0 {
				t.Errorf("%s: in-memory scan reported %d pruned segments", label, got)
			}
		}
	}
}

// TestSegmentPruneCountersDeterministic pins the prune counter as a pure
// function of (data, predicate, segment size): repeat runs and
// simulate-mode runs of the same plan must report the same
// SegmentsPruned, so benchdiff can gate on it.
func TestSegmentPruneCountersDeterministic(t *testing.T) {
	const executors = 4
	_, segPlan := segmentTwinPlans(t, "det", 200, 25, 60)
	op, err := Plan(segPlan, Options{Strategy: SkylineDistributedComplete})
	if err != nil {
		t.Fatal(err)
	}
	run := func(simulate bool) (int64, []string) {
		ctx := cluster.NewContext(executors)
		ctx.Simulate = simulate
		rows, err := Execute(op, ctx)
		if err != nil {
			t.Fatalf("simulate=%v: %v", simulate, err)
		}
		return ctx.Metrics.SegmentsPruned(), rowStrings(rows)
	}
	p1, r1 := run(false)
	p2, r2 := run(false)
	p3, r3 := run(true)
	if p1 == 0 {
		t.Fatal("plan pruned no segments — the determinism check would be vacuous")
	}
	if p1 != p2 || p1 != p3 {
		t.Errorf("SegmentsPruned not deterministic: live %d, repeat %d, simulate %d", p1, p2, p3)
	}
	if fmt.Sprint(r1) != fmt.Sprint(r2) || fmt.Sprint(r1) != fmt.Sprint(r3) {
		t.Error("repeat/simulate runs changed the result rows")
	}
}

// TestDisableSegmentPruneScansEverything: the pruning kill switch must
// decode every segment (counter stays zero) and still return the
// identical rows — pruning is an optimization, never a semantic change.
func TestDisableSegmentPruneScansEverything(t *testing.T) {
	const executors = 4
	_, segPlan := segmentTwinPlans(t, "nop", 200, 25, 60)
	op, err := Plan(segPlan, Options{Strategy: SkylineDistributedComplete})
	if err != nil {
		t.Fatal(err)
	}
	pruned := cluster.NewContext(executors)
	prunedRows, err := Execute(op, pruned)
	if err != nil {
		t.Fatal(err)
	}
	full := cluster.NewContext(executors)
	full.DisableSegmentPrune = true
	fullRows, err := Execute(op, full)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Metrics.SegmentsPruned(); got != 0 {
		t.Errorf("DisableSegmentPrune run still pruned %d segments", got)
	}
	if pruned.Metrics.SegmentsPruned() == 0 {
		t.Error("pruning-enabled run skipped nothing")
	}
	assertSameRows(t, "prune on vs off", fullRows, prunedRows)
}
