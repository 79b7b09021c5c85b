package physical

import (
	"fmt"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/plan"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// SkylineStrategy overrides the paper's automatic algorithm selection
// (Listing 8). SkylineAuto is the paper's default behaviour; the other
// strategies exist so that the evaluation harness can run all algorithm
// variants of §6.3 on the same query, plus the §7 extension algorithms.
type SkylineStrategy int

// Skyline strategies.
const (
	// SkylineAuto applies Listing 8: complete algorithms when COMPLETE is
	// set or no skyline dimension is nullable, incomplete otherwise.
	SkylineAuto SkylineStrategy = iota
	// SkylineDistributedComplete forces local BNL + global BNL (§6.3 alg 1).
	SkylineDistributedComplete
	// SkylineNonDistributedComplete skips the local step (§6.3 alg 2).
	SkylineNonDistributedComplete
	// SkylineDistributedIncomplete forces the null-bitmap partitioned
	// incomplete algorithm (§6.3 alg 3).
	SkylineDistributedIncomplete
	// SkylineSFS runs the single-node sort-filter-skyline extension (§7).
	SkylineSFS
	// SkylineDivideAndConquer runs the single-node divide-and-conquer
	// extension (§7).
	SkylineDivideAndConquer
	// SkylineGridComplete partitions the local skyline by grid cells over
	// the dimension space before the complete local/global split (§7).
	SkylineGridComplete
	// SkylineAngleComplete uses angle-based partitioning [Vlachou et al.
	// 2008] for the local skyline (§7).
	SkylineAngleComplete
	// SkylineZorderComplete range-partitions the tuples by Z-address before
	// the complete local/global split (§7 long-term work).
	SkylineZorderComplete
	// SkylineCostBased picks between the distributed and non-distributed
	// complete plans from an input-cardinality estimate — the light-weight
	// cost-based selection the paper proposes as future work (§7). Falls
	// back to the incomplete algorithm when nullability demands it.
	SkylineCostBased
)

// String names the strategy in the paper's terms.
func (s SkylineStrategy) String() string {
	switch s {
	case SkylineAuto:
		return "auto"
	case SkylineDistributedComplete:
		return "distributed complete"
	case SkylineNonDistributedComplete:
		return "non-distributed complete"
	case SkylineDistributedIncomplete:
		return "distributed incomplete"
	case SkylineSFS:
		return "sfs"
	case SkylineDivideAndConquer:
		return "divide-and-conquer"
	case SkylineGridComplete:
		return "grid complete"
	case SkylineAngleComplete:
		return "angle complete"
	case SkylineZorderComplete:
		return "zorder complete"
	case SkylineCostBased:
		return "cost-based"
	}
	return "?"
}

// Options configures physical planning.
type Options struct {
	Strategy SkylineStrategy
	// SkylineWindowCap bounds the BNL window of the complete skyline
	// algorithms (0 = unbounded). Bounded windows trade extra passes for
	// bounded memory, per the original BNL algorithm.
	SkylineWindowCap int
	// DisableColumnarKernel turns off the columnar dominance kernel: the
	// skyline operators then run the boxed CompareFunc path on every
	// partition (and the extremum filter re-evaluates its expression per
	// pass). Result-identical; kept selectable for A/B ablation.
	DisableColumnarKernel bool
	// DisableVectorizedExprs turns off the vectorized expression engine:
	// filters, projections, and the extremum passes then evaluate boxed,
	// row at a time, even when a partition carries a columnar sidecar.
	// Result-identical; kept selectable for A/B ablation
	// (skysql.WithoutVectorizedExprs also clears Context.DecodeAtScan).
	DisableVectorizedExprs bool
	// SFSZorderPresort switches the SFS strategy's presort from the entropy
	// score to the Z-order space-filling curve (same skyline, different
	// processing order; ablated in skybench).
	SFSZorderPresort bool
	// ResultCache, when non-nil, lets the planner wrap the compiled plan in
	// a result-cache consultation (internal/resultcache): the wrapper checks
	// the cache before any stage executes and records the hit/miss decision
	// in Metrics.CostDecisions. Nil means no caching.
	ResultCache PlanCache
}

// PlanCache is the planner's view of a skyline result cache. The concrete
// implementation lives in internal/resultcache (which imports this
// package); the planner only needs to offer it the finished plan.
type PlanCache interface {
	// Bind inspects the compiled physical plan and returns either the plan
	// unchanged (uncacheable shape) or a wrapper operator that consults the
	// cache at execution time. Bind must preserve the plan's schema and
	// result rows bit for bit.
	Bind(root Operator, opts Options) Operator
}

// Plan lowers a resolved (and optionally optimized) logical plan into a
// physical operator tree and compiles it into exchange-bounded fused
// stages (CompileStages): chains of narrow operators collapse into
// single-task-round pipelines, cut at pipeline breakers, mirroring Spark's
// stage/DAG execution model.
func Plan(n plan.Node, opts Options) (Operator, error) {
	op, err := lower(n, opts)
	if err != nil {
		return nil, err
	}
	op = CompileStages(op)
	pushPrunePredicates(op)
	if opts.ResultCache != nil {
		op = opts.ResultCache.Bind(op, opts)
	}
	return op, nil
}

// pushPrunePredicates collects, for every scan feeding a fused stage, the
// contiguous run of filter predicates at the head of the stage and records
// them on the scan for zone-map segment pruning. Only uninterrupted filter
// runs are taken: filters do not change the schema (so every collected
// predicate is bound to scan ordinals, which is what segment footers
// index), and stopping at the first non-filter operator keeps pruning
// sound — an intervening limit or projection could make "provably empty"
// depend on more than the predicate. The filters themselves still
// execute; a scan without segments simply ignores its Prune list.
func pushPrunePredicates(op Operator) {
	if n, ok := op.(*PipelineExec); ok {
		if scan, ok := n.Source.(*ScanExec); ok {
			for _, o := range n.Ops {
				f, ok := o.(*FilterExec)
				if !ok {
					break
				}
				scan.Prune = append(scan.Prune, f.Cond)
			}
		}
	}
	for _, c := range op.Children() {
		pushPrunePredicates(c)
	}
}

// lower translates logical nodes into per-operator physical nodes; stage
// fusion happens afterwards, over the whole tree.
func lower(n plan.Node, opts Options) (Operator, error) {
	switch p := n.(type) {
	case *plan.Scan:
		return NewScanExec(p.Table, p.Schema()), nil
	case *plan.OneRow:
		return &OneRowExec{}, nil
	case *plan.SubqueryAlias:
		return lower(p.Child, opts) // pure renaming; no runtime effect
	case *plan.Project:
		child, err := lower(p.Child, opts)
		if err != nil {
			return nil, err
		}
		proj := NewProjectExec(p.Exprs, p.Schema(), child)
		proj.DisableVector = opts.DisableVectorizedExprs
		return proj, nil
	case *plan.Filter:
		child, err := lower(p.Child, opts)
		if err != nil {
			return nil, err
		}
		return &FilterExec{Cond: p.Cond, DisableVector: opts.DisableVectorizedExprs, Child: child}, nil
	case *plan.Aggregate:
		child, err := lower(p.Child, opts)
		if err != nil {
			return nil, err
		}
		return NewAggregateExec(p.Groups, p.Outputs, p.Schema(), child), nil
	case *plan.Sort:
		child, err := lower(p.Child, opts)
		if err != nil {
			return nil, err
		}
		orders := make([]SortKey, len(p.Orders))
		for i, o := range p.Orders {
			orders[i] = SortKey{E: o.E, Desc: o.Desc}
		}
		return &SortExec{Orders: orders, Child: child}, nil
	case *plan.Limit:
		child, err := lower(p.Child, opts)
		if err != nil {
			return nil, err
		}
		return &LimitExec{N: p.N, Child: child}, nil
	case *plan.Distinct:
		child, err := lower(p.Child, opts)
		if err != nil {
			return nil, err
		}
		return &DistinctExec{Child: child}, nil
	case *plan.ExtremumFilter:
		child, err := lower(p.Child, opts)
		if err != nil {
			return nil, err
		}
		return &ExtremumFilterExec{E: p.E, Max: p.Max, DisableKernel: opts.DisableColumnarKernel, DisableVector: opts.DisableVectorizedExprs, Child: child}, nil
	case *plan.Join:
		return planJoin(p, opts)
	case *plan.SkylineOperator:
		return planSkyline(p, opts)
	}
	return nil, fmt.Errorf("physical: no physical operator for %T", n)
}

// planJoin selects a join implementation: hash join for equi-joins
// (inner/left-outer), nested-loop otherwise; right-outer joins are planned
// as swapped left-outer joins plus a column-reordering projection.
func planJoin(j *plan.Join, opts Options) (Operator, error) {
	left, err := lower(j.Left, opts)
	if err != nil {
		return nil, err
	}
	right, err := lower(j.Right, opts)
	if err != nil {
		return nil, err
	}
	schema := j.Schema()

	if j.Type == plan.RightOuterJoin {
		// RIGHT OUTER A⋈B  ==  reorder(LEFT OUTER B⋈A).
		lw, rw := j.Left.Schema().Len(), j.Right.Schema().Len()
		swappedCond := swapSides(j.Cond, lw, rw)
		swapped := plan.NewJoin(plan.LeftOuterJoin, j.Right, j.Left, swappedCond)
		inner, err := planJoin(swapped, opts)
		if err != nil {
			return nil, err
		}
		// Reorder output back to left-fields-then-right-fields.
		exprs := make([]expr.Expr, 0, lw+rw)
		for i := 0; i < lw; i++ {
			f := schema.Fields[i]
			exprs = append(exprs, expr.NewBoundRef(rw+i, f.Name, f.Type, f.Nullable))
		}
		for i := 0; i < rw; i++ {
			f := schema.Fields[lw+i]
			exprs = append(exprs, expr.NewBoundRef(i, f.Name, f.Type, f.Nullable))
		}
		return NewProjectExec(exprs, schema, inner), nil
	}

	// Equi-key extraction for inner / left outer joins.
	if j.Cond != nil && (j.Type == plan.InnerJoin || j.Type == plan.LeftOuterJoin) {
		lkeys, rkeys, residual := extractEquiKeys(j.Cond, j.Left.Schema().Len())
		if len(lkeys) > 0 {
			return NewHashJoinExec(j.Type, left, right, lkeys, rkeys, residual, schema), nil
		}
	}
	return NewNestedLoopJoinExec(j.Type, left, right, j.Cond, schema), nil
}

// swapSides rewrites a condition bound against (left++right) to one bound
// against (right++left).
func swapSides(cond expr.Expr, leftWidth, rightWidth int) expr.Expr {
	if cond == nil {
		return nil
	}
	return expr.Transform(cond, func(e expr.Expr) expr.Expr {
		b, ok := e.(*expr.BoundRef)
		if !ok {
			return e
		}
		if b.Index < leftWidth {
			return expr.NewBoundRef(b.Index+rightWidth, b.Name, b.Typ, b.Null)
		}
		return expr.NewBoundRef(b.Index-leftWidth, b.Name, b.Typ, b.Null)
	})
}

// extractEquiKeys splits a join condition (bound to the combined schema)
// into equi-key pairs and a residual predicate. Left keys are bound to the
// left schema; right keys are rebased to the right schema.
func extractEquiKeys(cond expr.Expr, leftWidth int) (lkeys, rkeys []expr.Expr, residual expr.Expr) {
	var rest []expr.Expr
	for _, c := range expr.SplitConjuncts(cond) {
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			rest = append(rest, c)
			continue
		}
		lmin, lmax := minBoundIndex(b.L), maxBoundIndex(b.L)
		rmin, rmax := minBoundIndex(b.R), maxBoundIndex(b.R)
		switch {
		case lmax >= 0 && lmax < leftWidth && rmin >= leftWidth:
			lkeys = append(lkeys, b.L)
			rkeys = append(rkeys, rebase(b.R, leftWidth))
		case rmax >= 0 && rmax < leftWidth && lmin >= leftWidth:
			lkeys = append(lkeys, b.R)
			rkeys = append(rkeys, rebase(b.L, leftWidth))
		default:
			rest = append(rest, c)
		}
	}
	return lkeys, rkeys, expr.JoinConjuncts(rest)
}

// planSkyline implements the paper's Listing 8: choose the skyline nodes of
// the physical plan from the COMPLETE flag and the nullability of the
// skyline dimensions, overridable by an explicit strategy.
func planSkyline(s *plan.SkylineOperator, opts Options) (Operator, error) {
	child, err := lower(s.Child, opts)
	if err != nil {
		return nil, err
	}
	dims := make([]BoundDim, len(s.Dims))
	dimExprs := make([]expr.Expr, len(s.Dims))
	for i, d := range s.Dims {
		dims[i] = BoundDim{E: d.Child, Dir: DirOf(d.Dir)}
		dimExprs[i] = d.Child
	}

	strategy := opts.Strategy
	if strategy == SkylineCostBased {
		strategy = costBasedStrategy(s)
	}
	if strategy == SkylineAuto {
		// Listing 8, line 1: skylineNullable ← ∃ d ∈ D_SKY : isnullable(d).
		skylineNullable := false
		for _, d := range s.Dims {
			if d.Child.Nullable() {
				skylineNullable = true
			}
		}
		// Listing 8, line 2: COMPLETE set or not nullable → complete nodes.
		if s.Complete || !skylineNullable {
			strategy = SkylineDistributedComplete
		} else {
			strategy = SkylineDistributedIncomplete
		}
	}

	noKernel := opts.DisableColumnarKernel
	switch strategy {
	case SkylineDistributedComplete:
		local := &LocalSkylineExec{Dims: dims, Distinct: s.Distinct, WindowCap: opts.SkylineWindowCap, DisableKernel: noKernel, Child: child}
		gather := &ExchangeExec{Dist: cluster.AllTuples, Child: local}
		return &GlobalSkylineExec{Dims: dims, Distinct: s.Distinct, Algorithm: GlobalBNL, WindowCap: opts.SkylineWindowCap, DisableKernel: noKernel, Child: gather}, nil
	case SkylineNonDistributedComplete:
		gather := &ExchangeExec{Dist: cluster.AllTuples, Child: child}
		return &GlobalSkylineExec{Dims: dims, Distinct: s.Distinct, Algorithm: GlobalBNL, WindowCap: opts.SkylineWindowCap, DisableKernel: noKernel, Child: gather}, nil
	case SkylineDistributedIncomplete:
		parts := &ExchangeExec{Dist: cluster.NullBitmap, Keys: dimExprs, Child: child}
		local := &LocalSkylineExec{Dims: dims, Distinct: s.Distinct, Incomplete: true, DisableKernel: noKernel, Child: parts}
		gather := &ExchangeExec{Dist: cluster.AllTuples, Child: local}
		return &GlobalSkylineExec{Dims: dims, Distinct: s.Distinct, Algorithm: GlobalIncompleteFlags, DisableKernel: noKernel, Child: gather}, nil
	case SkylineSFS:
		gather := &ExchangeExec{Dist: cluster.AllTuples, Child: child}
		return &GlobalSkylineExec{Dims: dims, Distinct: s.Distinct, Algorithm: GlobalSFS, ZorderPresort: opts.SFSZorderPresort, DisableKernel: noKernel, Child: gather}, nil
	case SkylineDivideAndConquer:
		gather := &ExchangeExec{Dist: cluster.AllTuples, Child: child}
		return &GlobalSkylineExec{Dims: dims, Distinct: s.Distinct, Algorithm: GlobalDivideAndConquer, DisableKernel: noKernel, Child: gather}, nil
	case SkylineGridComplete, SkylineAngleComplete, SkylineZorderComplete:
		dist := cluster.Grid
		switch strategy {
		case SkylineAngleComplete:
			dist = cluster.Angle
		case SkylineZorderComplete:
			dist = cluster.Zorder
		}
		minimize := make([]bool, len(dims))
		for i, d := range dims {
			minimize[i] = d.Dir == skyline.Min
		}
		parts := &ExchangeExec{Dist: dist, Keys: dimExprs, Minimize: minimize, SkyDims: dims, DisableKernel: noKernel, Child: child}
		local := &LocalSkylineExec{Dims: dims, Distinct: s.Distinct, DisableKernel: noKernel, Child: parts}
		gather := &ExchangeExec{Dist: cluster.AllTuples, Child: local}
		return &GlobalSkylineExec{Dims: dims, Distinct: s.Distinct, Algorithm: GlobalBNL, DisableKernel: noKernel, Child: gather}, nil
	}
	return nil, fmt.Errorf("physical: unknown skyline strategy %v", opts.Strategy)
}

// costBasedStrategy implements the light-weight cost-based algorithm
// selection of §7: with a small estimated input the distributed plan's
// extra exchange outweighs the parallel local phase, so the non-distributed
// plan wins; large inputs take the distributed plan. Nullability still
// forces the incomplete algorithm (correctness over cost).
func costBasedStrategy(s *plan.SkylineOperator) SkylineStrategy {
	nullable := false
	for _, d := range s.Dims {
		if d.Child.Nullable() {
			nullable = true
		}
	}
	if nullable && !s.Complete {
		return SkylineDistributedIncomplete
	}
	const distributionThreshold = 4096 // rows below which the shuffle dominates
	if EstimateRows(s.Child) < distributionThreshold {
		return SkylineNonDistributedComplete
	}
	return SkylineDistributedComplete
}

// EstimateRows is the planner's cardinality estimate: exact for scans,
// textbook selectivities elsewhere.
func EstimateRows(n plan.Node) int64 {
	switch p := n.(type) {
	case *plan.Scan:
		return int64(p.Table.RowCount())
	case *plan.OneRow:
		return 1
	case *plan.Filter:
		return EstimateRows(p.Child)/2 + 1
	case *plan.Limit:
		est := EstimateRows(p.Child)
		if p.N < est {
			return p.N
		}
		return est
	case *plan.Aggregate:
		est := EstimateRows(p.Child)
		if len(p.Groups) == 0 {
			return 1
		}
		return est/3 + 1
	case *plan.Join:
		l, r := EstimateRows(p.Left), EstimateRows(p.Right)
		switch p.Type {
		case plan.CrossJoin:
			return l * r
		case plan.LeftSemiJoin, plan.LeftAntiJoin:
			return l/2 + 1
		default:
			if r > l {
				return r
			}
			return l
		}
	case *plan.SkylineOperator, *plan.ExtremumFilter:
		// Skylines are usually selective; sqrt is a common rule of thumb.
		child := EstimateRows(n.Children()[0])
		est := int64(1)
		for est*est < child {
			est++
		}
		return est
	default:
		children := n.Children()
		if len(children) == 1 {
			return EstimateRows(children[0])
		}
		var total int64
		for _, c := range children {
			total += EstimateRows(c)
		}
		return total
	}
}

// Execute runs a physical plan and returns all result rows in one slice.
func Execute(op Operator, ctx *cluster.Context) ([]types.Row, error) {
	ds, err := op.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return ds.Gather(), nil
}
