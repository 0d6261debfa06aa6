package storage

import (
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

func intVec(vals ...int64) *vec.Vector {
	v := vec.NewCap(mtypes.BigInt, len(vals))
	for _, x := range vals {
		v.AppendValue(mtypes.NewInt(mtypes.BigInt, x))
	}
	return v
}

func TestComputeColStatsExact(t *testing.T) {
	v := intVec(5, 1, 3, 3, 9)
	v.AppendValue(mtypes.NullValue(mtypes.BigInt))
	st := ComputeColStats(v)
	if st.Rows != 6 || st.NullCount != 1 {
		t.Fatalf("rows/nulls = %d/%d, want 6/1", st.Rows, st.NullCount)
	}
	if st.NDV != 4 {
		t.Fatalf("ndv = %d, want 4", st.NDV)
	}
	if !st.HasRange || st.Min.AsInt() != 1 || st.Max.AsInt() != 9 {
		t.Fatalf("range = %v..%v (has=%v), want 1..9", st.Min, st.Max, st.HasRange)
	}
}

func TestComputeColStatsEmptyAndAllNull(t *testing.T) {
	st := ComputeColStats(vec.NewCap(mtypes.Int, 0))
	if st.Rows != 0 || st.HasRange || st.NDV != 0 {
		t.Fatalf("empty column stats = %+v", st)
	}
	v := vec.NewCap(mtypes.Int, 3)
	for i := 0; i < 3; i++ {
		v.AppendValue(mtypes.NullValue(mtypes.Int))
	}
	st = ComputeColStats(v)
	if st.NullCount != 3 || st.HasRange || st.NDV != 0 {
		t.Fatalf("all-null column stats = %+v", st)
	}
}

func TestComputeColStatsSampledBounds(t *testing.T) {
	// Far over the sampling budget: the estimate must stay within [1, nonNull]
	// and min/max must still be exact (full-pass).
	n := statsSampleCap*3 + 17
	v := vec.NewCap(mtypes.BigInt, n)
	for i := 0; i < n; i++ {
		v.AppendValue(mtypes.NewInt(mtypes.BigInt, int64(i%1000)))
	}
	st := ComputeColStats(v)
	if st.NDV < 1 || st.NDV > int64(n) {
		t.Fatalf("ndv = %d out of bounds", st.NDV)
	}
	// Uniform data with heavy repetition: sampled estimate should land near
	// the true 1000 (jackknife sees few singletons).
	if st.NDV > 5000 {
		t.Fatalf("ndv = %d, want near 1000", st.NDV)
	}
	if st.Min.AsInt() != 0 || st.Max.AsInt() != 999 {
		t.Fatalf("range = %v..%v, want 0..999", st.Min, st.Max)
	}
}

func TestStatsForLifecycle(t *testing.T) {
	tbl := NewMemoryTable(TableMeta{Name: "t", Cols: []ColDef{{Name: "a", Typ: mtypes.BigInt}}})
	if _, err := tbl.Append([]*vec.Vector{intVec(1, 2, 2, 7)}, 1); err != nil {
		t.Fatal(err)
	}
	tv := tbl.Version()
	st := tbl.StatsFor(tv, 0)
	if st == nil || st.Rows != 4 || st.NDV != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if again := tbl.StatsFor(tv, 0); again != st {
		t.Fatalf("stats not cached across calls")
	}
	// Stale snapshot after an append: old version must stop serving stats,
	// new version gets fresh ones.
	if _, err := tbl.Append([]*vec.Vector{intVec(9)}, 2); err != nil {
		t.Fatal(err)
	}
	if tbl.StatsFor(tv, 0) != nil {
		t.Fatalf("stale snapshot still served stats")
	}
	st2 := tbl.StatsFor(tbl.Version(), 0)
	if st2 == nil || st2.Rows != 5 || st2.Max.AsInt() != 9 {
		t.Fatalf("post-append stats = %+v", st2)
	}
	// Deletes disable stats entirely (same rule as order indexes).
	if _, _, err := tbl.Delete([]int32{0}, 3); err != nil {
		t.Fatal(err)
	}
	if tbl.StatsFor(tbl.Version(), 0) != nil {
		t.Fatalf("deleted table still served stats")
	}
}

func TestStatsEpochMaterialChanges(t *testing.T) {
	tbl := NewMemoryTable(TableMeta{Name: "t", Cols: []ColDef{{Name: "a", Typ: mtypes.BigInt}}})
	e0 := tbl.StatsEpoch()
	// First rows are always material.
	if _, err := tbl.Append([]*vec.Vector{intVec(1, 2, 3)}, 1); err != nil {
		t.Fatal(err)
	}
	e1 := tbl.StatsEpoch()
	if e1 == e0 {
		t.Fatalf("first append did not bump stats epoch")
	}
	// A tiny append onto a table just stamped is immaterial (< 20%, < 4096).
	big := vec.NewCap(mtypes.BigInt, 8000)
	for i := 0; i < 8000; i++ {
		big.AppendValue(mtypes.NewInt(mtypes.BigInt, int64(i)))
	}
	if _, err := tbl.Append([]*vec.Vector{big}, 2); err != nil {
		t.Fatal(err)
	}
	e2 := tbl.StatsEpoch() // 3 -> 8003 rows: material
	if e2 == e1 {
		t.Fatalf("8000-row append did not bump stats epoch")
	}
	if _, err := tbl.Append([]*vec.Vector{intVec(1)}, 3); err != nil {
		t.Fatal(err)
	}
	if tbl.StatsEpoch() != e2 {
		t.Fatalf("1-row append on 8003 rows bumped stats epoch")
	}
	// Deletes always bump.
	if _, _, err := tbl.Delete([]int32{0}, 4); err != nil {
		t.Fatal(err)
	}
	if tbl.StatsEpoch() == e2 {
		t.Fatalf("delete did not bump stats epoch")
	}
}

func TestStoreStatsVersion(t *testing.T) {
	s := NewMemory()
	v0 := s.StatsVersion()
	tbl, err := s.CreateTable(TableMeta{Name: "t", Cols: []ColDef{{Name: "a", Typ: mtypes.BigInt}}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := s.StatsVersion() // schemaVersion moved
	if v1 == v0 {
		t.Fatalf("create table did not move stats version")
	}
	if _, err := tbl.Append([]*vec.Vector{intVec(1, 2)}, 1); err != nil {
		t.Fatal(err)
	}
	if s.StatsVersion() == v1 {
		t.Fatalf("material append did not move stats version")
	}
}
