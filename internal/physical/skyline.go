package physical

import (
	"fmt"

	"skysql/internal/cluster"
	"skysql/internal/cost"
	"skysql/internal/expr"
	"skysql/internal/skyline"
	"skysql/internal/types"
)

// BoundDim is a skyline dimension whose expression is bound to the child
// schema, paired with its optimization direction.
type BoundDim struct {
	E   expr.Expr
	Dir skyline.Dir
}

// DirOf converts the expression-level direction to the algorithm-level one.
func DirOf(d expr.SkylineDir) skyline.Dir {
	switch d {
	case expr.SkyMin:
		return skyline.Min
	case expr.SkyMax:
		return skyline.Max
	default:
		return skyline.Diff
	}
}

func dimStrings(dims []BoundDim) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = d.E.String() + " " + d.Dir.String()
	}
	return joinStrings(parts)
}

// evalPoints evaluates the dimension vectors of a batch of rows.
func evalPoints(rows []types.Row, dims []BoundDim) ([]skyline.Point, error) {
	pts := make([]skyline.Point, len(rows))
	for i, row := range rows {
		vec := make(types.Row, len(dims))
		for d, bd := range dims {
			v, err := bd.E.Eval(row)
			if err != nil {
				return nil, err
			}
			vec[d] = v
		}
		pts[i] = skyline.Point{Dims: vec, Row: row}
	}
	return pts, nil
}

func dirsOf(dims []BoundDim) []skyline.Dir {
	dirs := make([]skyline.Dir, len(dims))
	for i, d := range dims {
		dirs[i] = d.Dir
	}
	return dirs
}

// skyTag is the sidecar signature of a skyline clause: the dimension
// expressions, their directions, and the dominance definition. A batch is
// only ever reused by an operator whose own tag matches, so a sidecar
// decoded for one skyline clause can never serve a different one (e.g.
// stacked skylines over different dimensions).
func skyTag(dims []BoundDim, incomplete bool) string {
	return fmt.Sprintf("%s|incomplete=%v", dimStrings(dims), incomplete)
}

// SkyTag exposes the sidecar tag of a skyline clause to packages that
// rebuild batches outside the operators — the result cache's incremental
// maintenance re-decodes an upgraded entry's sidecar under the same tag
// the cold path would have produced, so the hit stays reuse-equivalent.
func SkyTag(dims []BoundDim, incomplete bool) string { return skyTag(dims, incomplete) }

func rowsOf(pts []skyline.Point) []types.Row {
	rows := make([]types.Row, len(pts))
	for i, p := range pts {
		rows[i] = p.Row
	}
	return rows
}

// LocalSkylineExec computes a skyline per partition with the BNL window
// algorithm (§5.6). It is the "local" physical node of the paper's
// Listing 8 and is shared by the complete and incomplete plans; for
// incomplete data the planner ensures the child is NullBitmap-partitioned
// so transitivity holds within each partition.
type LocalSkylineExec struct {
	Dims       []BoundDim
	Distinct   bool
	Incomplete bool // dominance definition used within partitions
	// WindowCap bounds the BNL window; 0 means unbounded. A bounded window
	// switches to the multi-pass variant of the original BNL algorithm
	// (§5.6 discusses the window's memory residency).
	WindowCap int
	// DisableKernel forces the boxed CompareFunc path even when the
	// partition decodes into a columnar batch (Options.DisableColumnarKernel).
	DisableKernel bool
	Child         Operator
}

func (l *LocalSkylineExec) Schema() *types.Schema { return l.Child.Schema() }
func (l *LocalSkylineExec) Children() []Operator  { return []Operator{l.Child} }
func (l *LocalSkylineExec) String() string {
	mode := "complete"
	if l.Incomplete {
		mode = "incomplete"
	}
	return fmt.Sprintf("LocalSkylineExec(%s) [%s]", mode, dimStrings(l.Dims))
}

// NarrowChild implements NarrowOperator: the local skyline is computed
// independently per partition (the planner guarantees the partitioning —
// e.g. NullBitmap for incomplete data — before this node), so it fuses
// into the enclosing stage.
func (l *LocalSkylineExec) NarrowChild() Operator { return l.Child }

// MorselSplittable implements the morsel-safety opt-in. Complete dominance
// is transitive (NULL-aware dominance requires identical null masks), so
// each morsel's local skyline is the partition skyline restricted to its
// range plus extra locally-undominated points — a superset the global pass
// above reduces to exactly the whole-partition result, in the same order
// (both outputs are input-order subsequences containing every true skyline
// point). Incomplete dominance is not transitive and a bounded window's
// emission order depends on overflow timing, so those configurations stay
// whole-partition.
func (l *LocalSkylineExec) MorselSplittable() bool {
	return !l.Incomplete && l.WindowCap == 0
}

// PartitionTransform implements NarrowOperator. A partition
// arriving with a matching batch sidecar (e.g. from a Grid/Angle/Zorder
// exchange that bucketed on decoded columns) is processed without
// re-evaluating or re-decoding anything; otherwise the partition is
// decoded once here. Either way the surviving rows leave with their
// Batch.Select sidecar attached, so the gather above and the global
// skyline after it stay decode-free. Partitions the kernel cannot
// represent exactly fall back to the boxed CompareFunc path transparently
// (no sidecar emitted).
func (l *LocalSkylineExec) PartitionTransform(ctx *cluster.Context) cluster.ColumnarFn {
	cmp := skyline.Compare
	if l.Incomplete {
		cmp = skyline.CompareIncomplete
	}
	var stats *skyline.Stats
	if ctx.Metrics != nil {
		stats = &ctx.Metrics.Sky
	}
	dirs := dirsOf(l.Dims)
	tag := skyTag(l.Dims, l.Incomplete)
	return func(_ int, part []types.Row, in *skyline.Batch) ([]types.Row, *skyline.Batch, error) {
		var b *skyline.Batch
		var pts []skyline.Point
		if !l.DisableKernel && in != nil && in.Tag == tag && in.Len() == len(part) {
			b = in
		} else {
			var err error
			pts, err = evalPoints(part, l.Dims)
			if err != nil {
				return nil, nil, err
			}
			if !l.DisableKernel {
				if db, ok := skyline.DecodeBatch(pts, dirs, l.Incomplete, stats); ok {
					db.Tag = tag
					bindDimColumns(db, l.Dims)
					b = db
				}
			}
		}
		if b != nil {
			var idx []int
			var kerr error
			if l.WindowCap > 0 {
				idx, kerr = b.BNLBounded(l.Distinct, l.WindowCap)
			} else {
				idx = b.BNL(l.Distinct)
			}
			b.Flush(stats)
			if kerr != nil {
				return nil, nil, kerr
			}
			// Emit from the authoritative partition rows (identical to the
			// batch's wrapped rows by the alignment invariant, but robust).
			keep := make([]types.Row, len(idx))
			for i, j := range idx {
				keep[i] = part[j]
			}
			return keep, b.Select(idx), nil
		}
		var sky []skyline.Point
		var err error
		if l.WindowCap > 0 {
			sky, err = skyline.BNLBounded(pts, dirs, l.Distinct, l.WindowCap, cmp, stats)
		} else {
			sky, err = skyline.BNL(pts, dirs, l.Distinct, cmp, stats)
		}
		if err != nil {
			return nil, nil, err
		}
		return rowsOf(sky), nil, nil
	}
}

func (l *LocalSkylineExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	return executeNarrow(ctx, l)
}

// GlobalSkylineExec computes the final skyline on a single executor. The
// planner places an AllTuples exchange below it (§5.5); the operator
// gathers defensively regardless. Algorithm selects the complete BNL, the
// incomplete pairwise-flag algorithm, or one of the single-node extension
// algorithms (SFS, divide-and-conquer).
type GlobalSkylineExec struct {
	Dims      []BoundDim
	Distinct  bool
	Algorithm GlobalAlgorithm
	// WindowCap bounds the BNL window of the GlobalBNL algorithm; 0 means
	// unbounded. Other global algorithms ignore it.
	WindowCap int
	// ZorderPresort switches the GlobalSFS algorithm from the entropy-score
	// presort to the Z-order space-filling-curve presort
	// (Options.SFSZorderPresort); other algorithms ignore it.
	ZorderPresort bool
	// DisableKernel forces the boxed CompareFunc path even when the input
	// decodes into a columnar batch (Options.DisableColumnarKernel).
	DisableKernel bool
	Child         Operator
}

// GlobalAlgorithm selects the global skyline computation.
type GlobalAlgorithm int

// Global skyline algorithms.
const (
	GlobalBNL GlobalAlgorithm = iota
	GlobalIncompleteFlags
	GlobalSFS
	GlobalDivideAndConquer
)

// String names the algorithm.
func (g GlobalAlgorithm) String() string {
	switch g {
	case GlobalBNL:
		return "bnl"
	case GlobalIncompleteFlags:
		return "incomplete"
	case GlobalSFS:
		return "sfs"
	case GlobalDivideAndConquer:
		return "dnc"
	}
	return "?"
}

func (g *GlobalSkylineExec) Schema() *types.Schema { return g.Child.Schema() }
func (g *GlobalSkylineExec) Children() []Operator  { return []Operator{g.Child} }
func (g *GlobalSkylineExec) String() string {
	return fmt.Sprintf("GlobalSkylineExec(%s) [%s]", g.Algorithm, dimStrings(g.Dims))
}

func (g *GlobalSkylineExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	in, err := g.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	var stats *skyline.Stats
	if ctx.Metrics != nil {
		stats = &ctx.Metrics.Sky
	}
	incomplete := g.Algorithm == GlobalIncompleteFlags
	var rows []types.Row // gathered lazily: the sidecar path never needs it
	var pts []skyline.Point
	var b *skyline.Batch
	if !g.DisableKernel {
		b = g.sidecarBatch(in, in.NumRows())
	}
	if b == nil {
		// No reusable sidecar: evaluate the dimension vectors and decode
		// once here. Non-decodable inputs fall through to the boxed path.
		rows = in.Gather()
		pts, err = evalPoints(rows, g.Dims)
		if err != nil {
			return nil, err
		}
		if !g.DisableKernel {
			if db, ok := skyline.DecodeBatch(pts, dirsOf(g.Dims), incomplete, stats); ok {
				db.Tag = skyTag(g.Dims, incomplete)
				b = db
			}
		}
	}
	if b != nil {
		// Columnar kernel over the (merged sidecar or freshly decoded)
		// batch; ok=false only for unknown algorithms, which the boxed
		// switch below reports.
		if idx, ok, kerr := g.runKernelCtx(ctx, b, stats); ok {
			if kerr != nil {
				return nil, kerr
			}
			out := cluster.NewDataset(rowsOf(b.Points(idx)))
			out.Batches = []*skyline.Batch{b.Select(idx)}
			charge(ctx, out, in)
			return out, nil
		}
	}
	if pts == nil {
		// Sidecar present but the algorithm has no kernel twin: box up for
		// the fallback switch.
		if rows == nil {
			rows = in.Gather()
		}
		if pts, err = evalPoints(rows, g.Dims); err != nil {
			return nil, err
		}
	}
	dirs := dirsOf(g.Dims)
	var sky []skyline.Point
	switch g.Algorithm {
	case GlobalBNL:
		if g.WindowCap > 0 {
			sky, err = skyline.BNLBounded(pts, dirs, g.Distinct, g.WindowCap, skyline.Compare, stats)
		} else {
			sky, err = skyline.BNL(pts, dirs, g.Distinct, skyline.Compare, stats)
		}
	case GlobalIncompleteFlags:
		sky, err = skyline.GlobalIncomplete(pts, dirs, g.Distinct, stats)
	case GlobalSFS:
		if g.ZorderPresort {
			sky, err = skyline.SFSZorder(pts, dirs, g.Distinct, stats)
		} else {
			sky, err = skyline.SFS(pts, dirs, g.Distinct, stats)
		}
	case GlobalDivideAndConquer:
		sky, err = skyline.DivideAndConquer(pts, dirs, g.Distinct, stats)
	default:
		err = fmt.Errorf("physical: unknown global skyline algorithm %d", g.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	out := cluster.NewDataset(rowsOf(sky))
	charge(ctx, out, in)
	return out, nil
}

// sidecarBatch returns the merged columnar sidecar of the gathered input
// when every non-empty partition carries one matching this operator's
// dimension signature and dominance definition — the decode-free path of
// the local→global hop. nil when the input has no (usable) sidecar.
func (g *GlobalSkylineExec) sidecarBatch(in *cluster.Dataset, totalRows int) *skyline.Batch {
	b, ok := in.MergedSidecar()
	if !ok || b.Tag != skyTag(g.Dims, g.Algorithm == GlobalIncompleteFlags) || b.Len() != totalRows {
		return nil
	}
	return b
}

// runKernel runs the selected global algorithm on a decoded columnar
// batch. ok=false means the algorithm has no kernel twin and the boxed
// path must run instead.
func (g *GlobalSkylineExec) runKernel(b *skyline.Batch, stats *skyline.Stats) (idx []int, ok bool, err error) {
	switch g.Algorithm {
	case GlobalBNL:
		if g.WindowCap > 0 {
			idx, err = b.BNLBounded(g.Distinct, g.WindowCap)
		} else {
			idx = b.BNL(g.Distinct)
		}
	case GlobalIncompleteFlags:
		idx = b.GlobalIncomplete(g.Distinct)
	case GlobalSFS:
		if g.ZorderPresort {
			idx = b.SFSZorder(g.Distinct)
		} else {
			idx = b.SFS(g.Distinct)
		}
	case GlobalDivideAndConquer:
		idx = b.DivideAndConquer(g.Distinct)
	default:
		return nil, false, nil
	}
	b.Flush(stats)
	return idx, true, err
}

// runKernelCtx dispatches to the morsel-parallel kernel twins when the
// context enables morsel parallelism and the batch is large enough for
// the cost-chosen morsel size; otherwise it runs the serial kernel. The
// parallel twins emit bit-identical index sequences (batch_parallel.go),
// so the choice is purely a scheduling decision. The bounded-window BNL
// and the Z-order SFS presort have no parallel twin: their window/order
// state is inherently sequential, so they stay on the serial path.
func (g *GlobalSkylineExec) runKernelCtx(ctx *cluster.Context, b *skyline.Batch, stats *skyline.Stats) (idx []int, ok bool, err error) {
	chunk := g.parallelChunk(ctx, b.Len())
	if chunk <= 0 {
		return g.runKernel(b, stats)
	}
	run := ctx.RunMorsels
	switch {
	case g.Algorithm == GlobalBNL && g.WindowCap == 0:
		idx, err = b.BNLParallel(g.Distinct, chunk, run)
	case g.Algorithm == GlobalSFS && !g.ZorderPresort:
		idx, err = b.SFSParallel(g.Distinct, chunk, run)
	case g.Algorithm == GlobalDivideAndConquer:
		idx, err = b.DivideAndConquerParallel(g.Distinct, chunk, run)
	case g.Algorithm == GlobalIncompleteFlags:
		idx, err = b.GlobalIncompleteParallel(g.Distinct, chunk, run)
	default:
		return g.runKernel(b, stats)
	}
	b.Flush(stats)
	return idx, true, err
}

// parallelChunk returns the morsel row target for the parallel global
// kernel, or 0 when the serial kernel should run (morsel parallelism off,
// or the batch too small to split).
func (g *GlobalSkylineExec) parallelChunk(ctx *cluster.Context, rows int) int {
	if !ctx.MorselParallel {
		return 0
	}
	target := ctx.MorselTargetRows
	if target <= 0 {
		target = cost.MorselTarget(rows, ctx.Executors)
	}
	if rows < 2*target {
		return 0
	}
	return target
}
