package main

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// column is one column of a generated table, in the shape POST /tables
// takes.
type column struct {
	Name     string `json:"name"`
	Type     string `json:"type"`
	Nullable bool   `json:"nullable"`
}

// table is one generated input table. Every cell is a float64 (BIGINT
// columns hold integral values) and NaN stands for SQL NULL, so the
// oracle and the row keys work on one representation.
type table struct {
	name string
	cols []column
	rows [][]float64
}

var null = math.NaN()

func isNull(v float64) bool { return v != v }

// col returns the index of the named column; the generators and the
// query templates are written together, so a miss is a programming error.
func (t *table) col(name string) int {
	for i, c := range t.cols {
		if c.Name == name {
			return i
		}
	}
	panic("perfbench: table " + t.name + " has no column " + name)
}

// jsonRows renders rows as JSON arrays with NULL as null.
func jsonRows(rows [][]float64) []byte {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, r := range rows {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('[')
		for j, v := range r {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(formatCell(v))
		}
		sb.WriteByte(']')
	}
	sb.WriteByte(']')
	return []byte(sb.String())
}

func formatCell(v float64) string {
	if isNull(v) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func round(v, unit float64) float64 { return math.Round(v/unit) * unit }

// nullable returns v, or NULL with probability p.
func nullable(rng *rand.Rand, p, v float64) float64 {
	if p > 0 && rng.Float64() < p {
		return null
	}
	return v
}

// airbnbDims are the skyline dimensions of the paper's Airbnb dataset
// (Table 1) in paper order; a d-dimensional query uses the first d.
var airbnbDims = []string{"price MIN", "accommodates MAX", "bedrooms MAX", "beds MAX",
	"number_of_reviews MAX", "review_scores_rating MAX"}

// genAirbnb generates an Inside-Airbnb-shaped listing table. Price grows
// with capacity, so the cheap-and-large trade-off keeps low-dimensional
// skylines small and lets them grow with added dimensions (the paper's
// Fig. 3). nullP > 0 makes the incomplete variant: each skyline cell is
// NULL with that probability.
func genAirbnb(name string, n int, nullP float64, rng *rand.Rand) *table {
	t := &table{name: name, cols: []column{{Name: "id", Type: "BIGINT"}}}
	for _, d := range airbnbDims {
		t.cols = append(t.cols, column{Name: strings.Fields(d)[0], Type: "DOUBLE", Nullable: nullP > 0})
	}
	t.rows = make([][]float64, n)
	for i := range t.rows {
		acc := float64(1 + rng.Intn(12))
		bedrooms := 1 + math.Floor(acc/3) + float64(rng.Intn(2))
		beds := bedrooms + float64(rng.Intn(3))
		price := acc*22 + bedrooms*18 + math.Exp(rng.NormFloat64()*0.6+3.2)
		reviews := math.Floor(rng.ExpFloat64() * 40)
		rating := 60 + rng.Float64()*40
		t.rows[i] = []float64{float64(i + 1),
			nullable(rng, nullP, round(price, 0.01)),
			nullable(rng, nullP, acc),
			nullable(rng, nullP, bedrooms),
			nullable(rng, nullP, beds),
			nullable(rng, nullP, reviews),
			nullable(rng, nullP, round(rating, 0.1)),
		}
	}
	return t
}

// storeSalesDims are the skyline dimensions of the paper's store_sales
// table (Table 2) in paper order.
var storeSalesDims = []string{"ss_quantity MAX", "ss_wholesale_cost MIN", "ss_list_price MIN",
	"ss_sales_price MIN", "ss_ext_discount_amt MAX", "ss_ext_sales_price MIN"}

// genStoreSales generates a DSB-store_sales-shaped table. ss_quantity has
// few distinct values, so the 1-d skyline is large and the 2-d one small
// (the non-monotonic dimension effect of the paper's Fig. 4).
func genStoreSales(name string, n int, nullP float64, rng *rand.Rand) *table {
	t := &table{name: name, cols: []column{{Name: "id", Type: "BIGINT"}}}
	for _, d := range storeSalesDims {
		t.cols = append(t.cols, column{Name: strings.Fields(d)[0], Type: "DOUBLE", Nullable: nullP > 0})
	}
	t.rows = make([][]float64, n)
	for i := range t.rows {
		quantity := float64(1 + rng.Intn(100))
		wholesale := 1 + rng.Float64()*99
		list := wholesale * (1.2 + rng.Float64()*1.3)
		sales := list * (0.3 + rng.Float64()*0.7)
		discount := quantity * list * rng.Float64() * 0.2
		ext := sales * quantity
		t.rows[i] = []float64{float64(i + 1),
			nullable(rng, nullP, quantity),
			nullable(rng, nullP, round(wholesale, 0.01)),
			nullable(rng, nullP, round(list, 0.01)),
			nullable(rng, nullP, round(sales, 0.01)),
			nullable(rng, nullP, round(discount, 0.01)),
			nullable(rng, nullP, round(ext, 0.01)),
		}
	}
	return t
}

// genPoints generates an id column plus d1..dN in [0,1]. Anti-correlated
// points lie near the hyperplane sum = const, so being good in one
// dimension means being bad in the others and skylines are large;
// jitter widens the band (a wider band dominates more points away).
// Column nullability is declared but no NULL is generated.
func genPoints(name string, n, dims int, anti bool, jitter float64, nullableCols bool, rng *rand.Rand) *table {
	t := &table{name: name, cols: []column{{Name: "id", Type: "DOUBLE"}}}
	for d := 1; d <= dims; d++ {
		t.cols = append(t.cols, column{Name: "d" + strconv.Itoa(d), Type: "DOUBLE", Nullable: nullableCols})
	}
	t.rows = make([][]float64, n)
	for i := range t.rows {
		t.rows[i] = pointRow(float64(i+1), dims, anti, jitter, rng)
	}
	return t
}

func pointRow(id float64, dims int, anti bool, jitter float64, rng *rand.Rand) []float64 {
	row := make([]float64, dims+1)
	row[0] = id
	if !anti {
		for d := 1; d <= dims; d++ {
			row[d] = round(rng.Float64(), 1e-6)
		}
		return row
	}
	base := make([]float64, dims)
	sum := 0.0
	for d := range base {
		base[d] = rng.ExpFloat64()
		sum += base[d]
	}
	for d := range base {
		v := base[d]/sum + rng.NormFloat64()*jitter
		row[d+1] = round(math.Min(1, math.Max(0, v)), 1e-6)
	}
	return row
}
