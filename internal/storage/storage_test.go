package storage

import (
	"testing"

	"monetlite/internal/delta"
	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

func testMeta() TableMeta {
	return TableMeta{
		Name: "t",
		Cols: []ColDef{
			{Name: "a", Typ: mtypes.Int},
			{Name: "b", Typ: mtypes.Varchar},
			{Name: "c", Typ: mtypes.Decimal(15, 2)},
		},
	}
}

func testBatch(n, base int) []*vec.Vector {
	a := vec.New(mtypes.Int, n)
	b := vec.New(mtypes.Varchar, n)
	c := vec.New(mtypes.Decimal(15, 2), n)
	for i := 0; i < n; i++ {
		a.I32[i] = int32(base + i)
		b.Str[i] = []string{"red", "green", "blue"}[(base+i)%3]
		c.I64[i] = int64((base + i) * 100)
	}
	return []*vec.Vector{a, b, c}
}

func TestCreateAppendScan(t *testing.T) {
	s := NewMemory()
	tbl, err := s.CreateTable(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Append(testBatch(10, 0), s.BumpVersion()); err != nil {
		t.Fatal(err)
	}
	tv := tbl.Version()
	if tv.NRows != 10 || tv.LiveRows() != 10 {
		t.Fatalf("rows = %d/%d", tv.NRows, tv.LiveRows())
	}
	col, err := tv.Col(0)
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 10 || col.I32[7] != 7 {
		t.Fatalf("scan: %v", col.I32)
	}
	sv, _ := tv.Col(1)
	if sv.Str[4] != "green" {
		t.Fatalf("varchar scan: %v", sv.Str[:5])
	}
}

func TestCreateTableValidation(t *testing.T) {
	s := NewMemory()
	if _, err := s.CreateTable(TableMeta{Name: "x"}); err == nil {
		t.Fatal("empty table should fail")
	}
	if _, err := s.CreateTable(TableMeta{Name: "x", Cols: []ColDef{{Name: "a", Typ: mtypes.Int}, {Name: "a", Typ: mtypes.Int}}}); err == nil {
		t.Fatal("duplicate column should fail")
	}
	if _, err := s.CreateTable(testMeta()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable(testMeta()); err == nil {
		t.Fatal("duplicate table should fail")
	}
}

func TestAppendValidation(t *testing.T) {
	s := NewMemory()
	tbl, _ := s.CreateTable(testMeta())
	batch := testBatch(3, 0)
	if _, err := tbl.Append(batch[:2], 1); err == nil {
		t.Fatal("wrong column count should fail")
	}
	ragged := testBatch(3, 0)
	ragged[1] = vec.New(mtypes.Varchar, 2)
	if _, err := tbl.Append(ragged, 1); err == nil {
		t.Fatal("ragged batch should fail")
	}
}

// Snapshot isolation: a snapshot taken before an append must not see the new
// rows, even though the underlying arrays are shared.
func TestSnapshotIsolationOnAppend(t *testing.T) {
	s := NewMemory()
	tbl, _ := s.CreateTable(testMeta())
	tbl.Append(testBatch(5, 0), s.BumpVersion())
	snap := tbl.Version()
	tbl.Append(testBatch(5, 100), s.BumpVersion())

	col, _ := snap.Col(0)
	if col.Len() != 5 {
		t.Fatalf("old snapshot sees %d rows", col.Len())
	}
	for i := 0; i < 5; i++ {
		if col.I32[i] != int32(i) {
			t.Fatalf("old snapshot content changed: %v", col.I32)
		}
	}
	cur, _ := tbl.Version().Col(0)
	if cur.Len() != 10 || cur.I32[9] != 104 {
		t.Fatalf("new version wrong: %v", cur.I32)
	}
}

func TestDeleteBitmapAndLiveCands(t *testing.T) {
	s := NewMemory()
	tbl, _ := s.CreateTable(testMeta())
	tbl.Append(testBatch(6, 0), s.BumpVersion())
	before := tbl.Version()
	if _, n, err := tbl.Delete([]int32{1, 3, 3}, s.BumpVersion()); err != nil || n != 2 {
		t.Fatalf("delete: n=%d err=%v", n, err)
	}
	after := tbl.Version()
	if after.LiveRows() != 4 {
		t.Fatalf("live = %d", after.LiveRows())
	}
	cands := after.LiveCands()
	want := []int32{0, 2, 4, 5}
	if len(cands) != 4 {
		t.Fatalf("cands: %v", cands)
	}
	for i := range want {
		if cands[i] != want[i] {
			t.Fatalf("cands: %v", cands)
		}
	}
	// Older snapshot still sees all rows (copy-on-write bitmap).
	if before.LiveCands() != nil || before.LiveRows() != 6 {
		t.Fatal("delete leaked into old snapshot")
	}
	// Out-of-range delete fails.
	if _, _, err := tbl.Delete([]int32{99}, 5); err == nil {
		t.Fatal("out of range delete should fail")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.CreateTable(testMeta())
	tbl.Append(testBatch(100, 0), s.BumpVersion())
	tbl.Delete([]int32{7}, s.BumpVersion())
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tbl2, ok := s2.Get("t")
	if !ok {
		t.Fatal("table lost")
	}
	tv := tbl2.Version()
	if tv.NRows != 100 || tv.LiveRows() != 99 {
		t.Fatalf("rows = %d live %d", tv.NRows, tv.LiveRows())
	}
	a, err := tv.Col(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.I32[42] != 42 {
		t.Fatalf("int column: %d", a.I32[42])
	}
	b, _ := tv.Col(1)
	if b.Str[4] != "green" || b.Str[5] != "blue" {
		t.Fatalf("varchar column: %v", b.Str[:6])
	}
	c, _ := tv.Col(2)
	if c.I64[10] != 1000 || c.Typ.Scale != 2 {
		t.Fatalf("decimal column: %d %s", c.I64[10], c.Typ)
	}
}

func TestAppendAfterReload(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable(testMeta())
	tbl.Append(testBatch(10, 0), s.BumpVersion())
	s.Checkpoint()
	s.Close()

	s2, _ := Open(dir)
	defer s2.Close()
	tbl2, _ := s2.Get("t")
	// Appending to an mmap-backed column must copy, not write through.
	if _, err := tbl2.Append(testBatch(5, 50), s2.BumpVersion()); err != nil {
		t.Fatal(err)
	}
	tv := tbl2.Version()
	col, _ := tv.Col(0)
	if col.Len() != 15 || col.I32[12] != 52 || col.I32[3] != 3 {
		t.Fatalf("append after reload: %v", col.I32)
	}
	sv, _ := tv.Col(1)
	if sv.Str[11] != []string{"red", "green", "blue"}[51%3] {
		t.Fatalf("varchar append after reload: %q", sv.Str[11])
	}
	// Checkpoint again and reload to confirm the combined state persists.
	s2.Checkpoint()
	s2.Close()
	s3, _ := Open(dir)
	defer s3.Close()
	tbl3, _ := s3.Get("t")
	col3, _ := tbl3.Version().Col(0)
	if col3.Len() != 15 || col3.I32[14] != 54 {
		t.Fatalf("second round trip: %v", col3.I32)
	}
}

func TestDropTable(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable(testMeta())
	tbl.Append(testBatch(3, 0), s.BumpVersion())
	s.Checkpoint()
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("t"); ok {
		t.Fatal("table still visible")
	}
	if err := s.DropTable("t"); err == nil {
		t.Fatal("double drop should fail")
	}
	s.Checkpoint()
	s.Close()
	s2, _ := Open(dir)
	defer s2.Close()
	if _, ok := s2.Get("t"); ok {
		t.Fatal("dropped table came back after reload")
	}
}

func TestLazyLoading(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	tbl, _ := s.CreateTable(testMeta())
	tbl.Append(testBatch(10, 0), s.BumpVersion())
	s.Checkpoint()
	s.Close()

	s2, _ := Open(dir)
	defer s2.Close()
	tbl2, _ := s2.Get("t")
	if tbl2.cols[0].Loaded() || tbl2.cols[1].Loaded() {
		t.Fatal("columns should load lazily")
	}
	tbl2.Version().Col(0)
	if !tbl2.cols[0].Loaded() {
		t.Fatal("col 0 should be loaded after access")
	}
	if tbl2.cols[1].Loaded() {
		t.Fatal("col 1 should stay unloaded")
	}
}

func TestIndexLifecycle(t *testing.T) {
	s := NewMemory()
	tbl, _ := s.CreateTable(testMeta())
	tbl.Append(testBatch(500, 0), s.BumpVersion())
	tv := tbl.Version()

	h := tbl.HashFor(tv, 1)
	if h == nil || h.Rows() != 500 {
		t.Fatal("hash index should build")
	}
	if tbl.HashFor(tv, 1) != h {
		t.Fatal("hash index should be cached")
	}
	if err := tbl.CreateOrderIndex(0); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasOrderIndex(0) || tbl.OrderFor(tv, 0) == nil {
		t.Fatal("order index should exist")
	}

	// Append: the new rows land in the append-delta. The hash index keeps
	// covering the 500-row base — for the old snapshot AND the new version
	// (the executor raw-scans the uncovered tail) — and the background merge
	// folds them forward. Order indexes die but rebuild on demand because
	// orderWanted persists.
	tbl.Append(testBatch(100, 500), s.BumpVersion())
	tv2 := tbl.Version()
	if tv2.BaseRows != 0 || tv2.DeltaRows() != 600 {
		// baseRows only advances at merge; this table never merged.
		t.Fatalf("append-delta bookkeeping: base %d delta %d", tv2.BaseRows, tv2.DeltaRows())
	}
	if got := tbl.HashFor(tv, 1); got != h {
		t.Fatal("old snapshot should keep being served the base-covering hash index")
	}
	h2 := tbl.HashFor(tv2, 1)
	if h2 != h || h2.Rows() != 500 {
		t.Fatalf("append must not touch the hash index (rows %d)", h2.Rows())
	}
	if oi := tbl.OrderFor(tv2, 0); oi == nil || oi.Rows() != 600 {
		t.Fatal("order index should rebuild for new version")
	}

	// Merge folds the delta: the hash index extends incrementally.
	if rep, ok := tbl.MergeDelta(delta.NoPins); !ok || rep.HashExtended != 1 {
		t.Fatalf("merge should extend the hash index: %+v ok=%v", rep, ok)
	}
	tv2 = tbl.Version()
	if tv2.BaseRows != 600 {
		t.Fatalf("merge should advance the base to 600, got %d", tv2.BaseRows)
	}
	if h3 := tbl.HashFor(tv2, 1); h3 == nil || h3.Rows() != 600 {
		t.Fatal("hash should cover the merged base")
	}

	// Delete: the hash index survives (deleted rows are excluded by the
	// executor's candidate lists); order indexes require delete-free
	// snapshots and die.
	tbl.Delete([]int32{0}, s.BumpVersion())
	tv3 := tbl.Version()
	if tbl.HashFor(tv3, 1) == nil {
		t.Fatal("hash index must survive deletes")
	}
	if tbl.OrderFor(tv3, 0) != nil {
		t.Fatal("order index must not be served for snapshots with deletes")
	}
}

func TestBitmap(t *testing.T) {
	b := NewBitmap(100)
	if !b.Set(5) || b.Set(5) {
		t.Fatal("set twice")
	}
	b.Set(64)
	b.Set(99)
	if !b.Get(5) || !b.Get(64) || b.Get(6) {
		t.Fatal("get")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	slots := b.Slots()
	if len(slots) != 3 || slots[0] != 5 || slots[1] != 64 || slots[2] != 99 {
		t.Fatalf("slots: %v", slots)
	}
	cl := b.Clone(100)
	cl.Set(7)
	if b.Get(7) {
		t.Fatal("clone aliases")
	}
	// Growing set.
	b2 := NewBitmap(1)
	b2.Set(200)
	if !b2.Get(200) {
		t.Fatal("grow on set")
	}
	var nilB *Bitmap
	if nilB.Count() != 0 || nilB.Get(3) || nilB.Slots() != nil || nilB.LiveCands(5) != nil {
		t.Fatal("nil bitmap helpers")
	}
}

func TestSnapshotMap(t *testing.T) {
	s := NewMemory()
	s.CreateTable(testMeta())
	snap := s.Snapshot()
	if len(snap) != 1 || snap["t"] == nil {
		t.Fatalf("snapshot: %v", snap)
	}
	names := s.TableNames()
	if len(names) != 1 || names[0] != "t" {
		t.Fatalf("names: %v", names)
	}
}

func TestStoreVersioning(t *testing.T) {
	s := NewMemory()
	v1 := s.BumpVersion()
	v2 := s.BumpVersion()
	if v2 != v1+1 || s.Version() != v2 {
		t.Fatal("versioning")
	}
	if !s.InMemory() || s.Dir() != "" {
		t.Fatal("memory store flags")
	}
}

// A hash index must survive appends: the merge extends it over the new rows
// (not rebuilt, not destroyed), old snapshots keep their unmutated copy, and
// lookups stay identical to naive scans across the append.
func TestHashIndexMaintainedOnAppend(t *testing.T) {
	s := NewMemory()
	tbl, err := s.CreateTable(testMeta())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Append(testBatch(500, 0), s.BumpVersion()); err != nil {
		t.Fatal(err)
	}
	v1 := tbl.Version()
	h1 := tbl.HashFor(v1, 0)
	if h1 == nil || h1.Rows() != 500 {
		t.Fatal("hash index not built on demand")
	}

	if _, err := tbl.Append(testBatch(300, 500), s.BumpVersion()); err != nil {
		t.Fatal(err)
	}
	// The append itself leaves the index alone: both the old snapshot and
	// the new version are served the 500-row base coverage (the executor
	// raw-scans the uncovered append-delta tail).
	v2 := tbl.Version()
	if got := tbl.HashFor(v2, 0); got != h1 || got.Rows() != 500 {
		t.Fatalf("append must not touch the hash index (got %v)", got)
	}
	// The background merge extends it copy-on-write over the delta rows.
	if rep, ok := tbl.MergeDelta(delta.NoPins); !ok || rep.HashExtended != 1 {
		t.Fatalf("merge should extend the hash index: %+v ok=%v", rep, ok)
	}
	v2 = tbl.Version()
	h2 := tbl.HashFor(v2, 0)
	if h2 == nil || h2.Rows() != 800 {
		t.Fatalf("hash index not extended by merge (%v)", h2)
	}
	if h2 == h1 {
		t.Fatal("merge must produce a fresh hash index (readers may hold the old one)")
	}
	if h1.Rows() != 500 || h1.Lookup(mtypes.NewInt(mtypes.Int, 650)) != nil {
		t.Fatal("merge mutated the old snapshot's hash index")
	}
	col, _ := v2.Col(0)
	for _, k := range []int64{100, 499, 650, 799, 800} {
		key := mtypes.NewInt(mtypes.Int, k)
		got := append([]int32{}, h2.Lookup(key)...)
		want := vec.SelCmp(col, vec.CmpEq, key, nil)
		if len(got) != len(want) || len(got) > 0 && got[0] != want[0] {
			t.Fatalf("key %d: index rows %v, scan rows %v", k, got, want)
		}
	}

	// Deletes keep the index alive: the bitmap is consumed by the executor's
	// candidate lists, so deleted rows can never leak through a lookup.
	if _, _, err := tbl.Delete([]int32{3}, s.BumpVersion()); err != nil {
		t.Fatal(err)
	}
	if tbl.HashFor(tbl.Version(), 0) != h2 {
		t.Fatal("hash index should survive deletes")
	}
}
