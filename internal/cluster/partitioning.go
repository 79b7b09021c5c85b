package cluster

import (
	"fmt"
	"math"
	"sort"

	"skysql/internal/skyline"
	"skysql/internal/types"
)

// This file implements the alternative partitioning schemes the paper
// lists as future work for the local skyline computation (§7, citing
// [Vlachou et al. 2008] for angle-based partitioning and [Tang et al.
// 2019] for grid-based schemes). Both partition on the skyline-dimension
// values themselves rather than arbitrarily, which tends to make local
// skylines more selective and shrinks the input of the non-parallelizable
// global phase.
//
// Each scheme has two key paths. The boxed path (ExchangePartitioned)
// extracts key rows one tuple at a time through a KeyFunc and converts
// them to float64 per row. The columnar path (ExchangePartitionedColumnar)
// buckets directly on a decoded skyline.Batch: the batch's numeric vectors
// are already direction-normalized (MAX negated at decode), so the
// per-dimension [0,1] rescaling needs no orientation flip and assigns
// every tuple to exactly the same bucket as the boxed path — and because
// the bucketed output partitions are carved out of the batch with
// Batch.Select, they carry the decoded columns forward as a sidecar, so
// the local skylines downstream of the exchange never re-decode. The
// partition count itself is adaptive when Context.TargetRowsPerPartition
// is set: it derives from the observed input size instead of the static
// executor count.

// Grid and Angle distributions (continuing the Distribution enum).
const (
	// Grid partitions the key space into per-dimension equi-width buckets
	// and assigns whole cells to executors.
	Grid Distribution = iota + 100
	// Angle converts keys to hyperspherical coordinates and partitions by
	// the first angle, the scheme of Vlachou et al.: points on the same
	// ray from the origin compete within one partition, which prunes well
	// on anti-correlated data.
	Angle
	// Zorder computes a Z-address for every tuple (bit-interleaved bucket
	// coordinates, [Lee et al. 2010]) and range-partitions the Z-order —
	// the paper's §7 "long-term" partitioning scheme.
	Zorder
)

// ExchangePartitioned repartitions under the Grid or Angle distribution
// and charges the shuffle to the metrics.
func (c *Context) ExchangePartitioned(in *Dataset, dist Distribution, key KeyFunc, minimize []bool) (*Dataset, error) {
	if err := c.CheckBudget(); err != nil {
		return nil, err
	}
	c.Metrics.Add(RowsShuffled, int64(in.NumRows()))
	return c.exchangePartitioned(in, dist, key, minimize)
}

// chargeShuffleBuffer books the driver-side gather buffer of a partitioned
// exchange in the metrics: the gathered rows are live concurrently with the
// input dataset until the output partitions are assembled, and peak-bytes
// accounting must see that. The returned func releases the charge.
func (c *Context) chargeShuffleBuffer(rows []types.Row) func() {
	var n int64
	for _, r := range rows {
		n += r.MemSize()
	}
	c.Metrics.Alloc(n)
	return func() { c.Metrics.Free(n) }
}

// exchangePartitioned implements the Grid and Angle distributions; key
// extracts the (numeric) skyline-dimension values, and dirs flags which
// dimensions are minimized (true) vs maximized (false) so that values can
// be oriented consistently before bucketing.
func (c *Context) exchangePartitioned(in *Dataset, dist Distribution, key KeyFunc, minimize []bool) (*Dataset, error) {
	rows := in.Gather()
	if len(rows) == 0 {
		return &Dataset{}, nil
	}
	release := c.chargeShuffleBuffer(rows)
	defer release()
	keys := make([][]float64, len(rows))
	width := 0
	for i, row := range rows {
		kv, err := key(row)
		if err != nil {
			return nil, err
		}
		width = len(kv)
		fs := make([]float64, len(kv))
		for d, v := range kv {
			switch {
			case v.IsNull():
				fs[d] = 0 // schemes are used on complete data; degrade gracefully
			case v.IsNumeric():
				fs[d] = v.AsFloat()
			default:
				return nil, fmt.Errorf("cluster: %v partitioning requires numeric dimensions", dist)
			}
		}
		keys[i] = fs
	}
	// Normalize each dimension to [0,1] oriented so 0 is "best".
	mins := make([]float64, width)
	maxs := make([]float64, width)
	for d := 0; d < width; d++ {
		mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
		for _, k := range keys {
			if k[d] < mins[d] {
				mins[d] = k[d]
			}
			if k[d] > maxs[d] {
				maxs[d] = k[d]
			}
		}
	}
	norm := func(k []float64) []float64 {
		out := make([]float64, width)
		for d := 0; d < width; d++ {
			span := maxs[d] - mins[d]
			if span == 0 {
				out[d] = 0
				continue
			}
			v := (k[d] - mins[d]) / span
			if d < len(minimize) && !minimize[d] {
				v = 1 - v // orient MAX dimensions so smaller = better
			}
			out[d] = v
		}
		return out
	}

	target := c.partitionTarget(len(rows))
	if dist == Zorder {
		zs := make([]uint64, len(rows))
		for i := range rows {
			zs[i] = skyline.ZAddress(norm(keys[i]))
		}
		order := zorderedIndices(zs)
		sorted := make([]types.Row, len(order))
		for i, j := range order {
			sorted[i] = rows[j]
		}
		return NewDataset(splitEven(sorted, target)...), nil
	}
	parts := make([][]types.Row, target)
	for i, row := range rows {
		nk := norm(keys[i])
		var p int
		switch dist {
		case Grid:
			p = gridCell(nk, target)
		case Angle:
			p = angleBucket(nk, target)
		default:
			return nil, fmt.Errorf("cluster: exchangePartitioned on %v", dist)
		}
		parts[p] = append(parts[p], row)
	}
	// Drop empty partitions to avoid scheduling empty tasks.
	var nonEmpty [][]types.Row
	for _, p := range parts {
		if len(p) > 0 {
			nonEmpty = append(nonEmpty, p)
		}
	}
	return NewDataset(nonEmpty...), nil
}

// ExchangePartitionedColumnar repartitions rows under Grid/Angle/Zorder by
// bucketing directly on the decoded numeric columns of batch (which must be
// index-aligned with rows and hold only MIN/MAX dimensions). Bucket
// assignment is bit-identical to the boxed path: decode negated MAX values
// exactly, so the raw key of every tuple is recovered bit-for-bit (another
// exact negation) and normalized with the very same "(v-min)/span, flip
// MAX" arithmetic the boxed path applies — same operations, same operands,
// same rounding. Every output partition carries its Batch.Select slice as
// a columnar sidecar, so downstream local skylines run decode-free.
func (c *Context) ExchangePartitionedColumnar(rows []types.Row, batch *skyline.Batch, dist Distribution) (*Dataset, error) {
	if err := c.CheckBudget(); err != nil {
		return nil, err
	}
	c.Metrics.Add(RowsShuffled, int64(len(rows)))
	if len(rows) == 0 {
		return &Dataset{}, nil
	}
	if batch.Len() != len(rows) || batch.KeyDims() > 0 || batch.NumDims() == 0 {
		return nil, fmt.Errorf("cluster: columnar %v exchange needs an aligned numeric-only batch", dist)
	}
	release := c.chargeShuffleBuffer(rows)
	defer release()
	width := batch.NumDims()
	// flip[d] marks MAX dimensions: their stored values are negated (an
	// exact operation), so -v recovers the raw key and the boxed 1-v
	// orientation flip is replayed after normalization.
	flip := make([]bool, width)
	nc := 0
	for _, dir := range batch.Dirs() {
		if dir == skyline.Diff {
			continue
		}
		flip[nc] = dir == skyline.Max
		nc++
	}
	mins := make([]float64, width)
	maxs := make([]float64, width)
	for d := 0; d < width; d++ {
		mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
	}
	for i := 0; i < batch.Len(); i++ {
		for d, v := range batch.NumRow(i) {
			if flip[d] {
				v = -v
			}
			if v < mins[d] {
				mins[d] = v
			}
			if v > maxs[d] {
				maxs[d] = v
			}
		}
	}
	nk := make([]float64, width)
	norm := func(i int) []float64 {
		for d, v := range batch.NumRow(i) {
			if flip[d] {
				v = -v
			}
			span := maxs[d] - mins[d]
			if span == 0 {
				nk[d] = 0
				continue
			}
			out := (v - mins[d]) / span
			if flip[d] {
				out = 1 - out
			}
			nk[d] = out
		}
		return nk
	}

	target := c.partitionTarget(len(rows))
	var buckets [][]int
	switch dist {
	case Grid, Angle:
		buckets = make([][]int, target)
		for i := range rows {
			var p int
			if dist == Grid {
				p = gridCell(norm(i), target)
			} else {
				p = angleBucket(norm(i), target)
			}
			buckets[p] = append(buckets[p], i)
		}
	case Zorder:
		zs := make([]uint64, len(rows))
		for i := range rows {
			zs[i] = skyline.ZAddress(norm(i))
		}
		order := zorderedIndices(zs)
		for _, b := range evenChunkBounds(len(order), target) {
			buckets = append(buckets, order[b[0]:b[1]])
		}
	default:
		return nil, fmt.Errorf("cluster: ExchangePartitionedColumnar on %v", dist)
	}

	out := &Dataset{}
	attach := !c.SidecarsDropped() // under memory degradation, buckets go boxed
	for _, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		part := make([]types.Row, len(idx))
		for i, j := range idx {
			part[i] = rows[j]
		}
		out.Parts = append(out.Parts, part)
		if attach {
			out.Batches = append(out.Batches, batch.Select(idx))
		}
	}
	return out, nil
}

// zorderedIndices returns row indices sorted by Z-address. The sort is
// stable so the boxed and columnar paths (which compute identical
// addresses) produce identical range partitions.
func zorderedIndices(zs []uint64) []int {
	order := make([]int, len(zs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return zs[order[a]] < zs[order[b]] })
	return order
}

// gridCell buckets each dimension into g equi-width cells (g chosen so the
// cell count roughly matches the executor count) and folds the cell
// coordinates into a partition index.
func gridCell(k []float64, executors int) int {
	g := int(math.Ceil(math.Pow(float64(executors), 1/float64(len(k)))))
	if g < 1 {
		g = 1
	}
	cell := 0
	for _, v := range k {
		b := int(v * float64(g))
		if b >= g {
			b = g - 1
		}
		cell = cell*g + b
	}
	return cell % executors
}

// angleBucket maps the point to its first hyperspherical angle over the
// normalized coordinates and buckets [0, π/2] uniformly.
func angleBucket(k []float64, executors int) int {
	if len(k) == 1 {
		b := int(k[0] * float64(executors))
		if b >= executors {
			b = executors - 1
		}
		return b
	}
	// First angle: atan2 of the norm of the tail against the head.
	var tail float64
	for _, v := range k[1:] {
		tail += v * v
	}
	phi := math.Atan2(math.Sqrt(tail), k[0]) // ∈ [0, π/2] for non-negative coords
	b := int(phi / (math.Pi / 2) * float64(executors))
	if b >= executors {
		b = executors - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}
