package plan_test

import (
	"testing"

	"monetlite/internal/plan"
	"monetlite/internal/rowstore"
	"monetlite/internal/sqlparse"
	"monetlite/internal/tpch"
)

// tpchCatalog is the TPC-H schema with generated row counts (no rows).
type tpchCatalog struct {
	*rowstore.DB
	rows map[string]int64
}

func (c tpchCatalog) TableRows(name string) int64 { return c.rows[name] }

// TestTPCHPlansHoldNoPlaceholders binds and optimizes the 22 TPC-H queries
// and checks every plan, its scalar subqueries' plans included, with
// CheckBoundPlan: no outerRef or windowRef survives and every column
// reference lies inside its node's input.
func TestTPCHPlansHoldNoPlaceholders(t *testing.T) {
	db, err := rowstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cat := tpchCatalog{DB: db, rows: map[string]int64{}}
	for _, tbl := range tpch.Generate(0.001, 42).Tables() {
		if _, err := db.Exec(tbl.DDL); err != nil {
			t.Fatal(err)
		}
		cat.rows[tbl.Name] = int64(tbl.Rows)
	}
	for _, q := range tpch.QueryNumbers {
		st, err := sqlparse.ParseOne(tpch.Queries[q])
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		bq, err := plan.BindSelect(cat, st.(*sqlparse.SelectStmt), nil)
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if err := plan.CheckBoundPlan(bq.Plan); err != nil {
			t.Errorf("Q%d: %v\n%s", q, err, plan.PlanString(bq.Plan))
		}
	}
}
