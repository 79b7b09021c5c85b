package physical

import (
	"fmt"

	"skysql/internal/cluster"
	"skysql/internal/expr"
	"skysql/internal/types"
)

// AggregateExec computes hash aggregation in two phases: partial
// aggregation per partition (parallel) followed by a final merge, the way
// Spark executes aggregates.
type AggregateExec struct {
	Groups  []expr.Expr
	Outputs []expr.Expr
	Child   Operator
	schema  *types.Schema
	// specs are the distinct aggregate calls appearing in Outputs.
	specs []*expr.Aggregate
}

// NewAggregateExec creates a hash aggregate.
func NewAggregateExec(groups, outputs []expr.Expr, schema *types.Schema, child Operator) *AggregateExec {
	a := &AggregateExec{Groups: groups, Outputs: outputs, Child: child, schema: schema}
	seen := map[string]bool{}
	for _, o := range outputs {
		expr.Walk(o, func(e expr.Expr) {
			if ag, ok := e.(*expr.Aggregate); ok && !seen[ag.String()] {
				seen[ag.String()] = true
				a.specs = append(a.specs, ag)
			}
		})
	}
	return a
}

func (a *AggregateExec) Schema() *types.Schema { return a.schema }
func (a *AggregateExec) Children() []Operator  { return []Operator{a.Child} }
func (a *AggregateExec) String() string {
	return fmt.Sprintf("AggregateExec groups=[%s] outputs=[%s]", exprStrings(a.Groups), exprStrings(a.Outputs))
}

// groupState is the per-group accumulator set plus a representative row
// used to evaluate the grouping expressions in the output.
type groupState struct {
	repr types.Row
	accs []*expr.Accumulator
}

func (a *AggregateExec) newState(repr types.Row) *groupState {
	gs := &groupState{repr: repr, accs: make([]*expr.Accumulator, len(a.specs))}
	for i, sp := range a.specs {
		gs.accs[i] = expr.NewAccumulator(sp)
	}
	return gs
}

func (a *AggregateExec) groupKey(row types.Row) (string, error) {
	key := ""
	for _, g := range a.Groups {
		v, err := g.Eval(row)
		if err != nil {
			return "", err
		}
		key += v.GroupKey() + "\x1f"
	}
	return key, nil
}

func (a *AggregateExec) Execute(ctx *cluster.Context) (*cluster.Dataset, error) {
	in, err := a.Child.Execute(ctx)
	if err != nil {
		return nil, err
	}
	// Phase 1: partial aggregation per partition.
	type partial struct {
		keys   []string
		states map[string]*groupState
	}
	partials := make([]partial, len(in.Parts))
	_, err = ctx.MapPartitions(in, func(i int, part []types.Row) ([]types.Row, error) {
		p := partial{states: make(map[string]*groupState)}
		for _, row := range part {
			key, err := a.groupKey(row)
			if err != nil {
				return nil, err
			}
			gs, ok := p.states[key]
			if !ok {
				gs = a.newState(row)
				p.states[key] = gs
				p.keys = append(p.keys, key)
			}
			for _, acc := range gs.accs {
				if err := acc.Add(row); err != nil {
					return nil, err
				}
			}
		}
		partials[i] = p
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2: merge partials (models the shuffle to the final stage).
	final := make(map[string]*groupState)
	var order []string
	for _, p := range partials {
		for _, key := range p.keys {
			gs := p.states[key]
			dst, ok := final[key]
			if !ok {
				final[key] = gs
				order = append(order, key)
				continue
			}
			for i := range dst.accs {
				if err := dst.accs[i].Merge(gs.accs[i]); err != nil {
					return nil, err
				}
			}
		}
		ctx.Metrics.Add(cluster.RowsShuffled, int64(len(p.keys)))
	}
	// Global aggregation over empty input still yields one row.
	if len(a.Groups) == 0 && len(order) == 0 {
		key := ""
		final[key] = a.newState(types.Row{})
		order = append(order, key)
	}
	// Materialize output rows.
	rows := make([]types.Row, 0, len(order))
	for _, key := range order {
		gs := final[key]
		row := make(types.Row, len(a.Outputs))
		for i, o := range a.Outputs {
			replaced := expr.Transform(o, func(e expr.Expr) expr.Expr {
				if ag, ok := e.(*expr.Aggregate); ok {
					for si, sp := range a.specs {
						if sp.String() == ag.String() {
							return expr.NewLiteral(gs.accs[si].Result())
						}
					}
				}
				return e
			})
			v, err := replaced.Eval(gs.repr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	out := cluster.NewDataset(rows)
	charge(ctx, out, in)
	return out, nil
}
