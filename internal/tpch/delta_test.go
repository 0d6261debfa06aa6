package tpch

import (
	"fmt"
	"reflect"
	"testing"

	"monetlite"
)

// slicePart slices every column of a generated table to rows [lo, hi) —
// the columns are typed slices behind `any`, so go through reflection.
func slicePart(cols []any, lo, hi int) []any {
	out := make([]any, len(cols))
	for i, c := range cols {
		out[i] = reflect.ValueOf(c).Slice(lo, hi).Interface()
	}
	return out
}

// openPendingDelta opens a parallel database whose lineitem carries a
// pending append-delta: every table except lineitem loads whole; lineitem
// loads its first 90%, gets merged + encoded (so the base runs the
// compressed and hash-indexed paths), then the remaining 10% lands as a
// pending delta that no merger is allowed to fold. It returns the delta's
// row count.
func openPendingDelta(t *testing.T, data *Data) (*monetlite.Database, *monetlite.Conn, int) {
	t.Helper()
	db, err := monetlite.OpenInMemory(monetlite.Config{Parallel: true, MaxThreads: 4, NoDeltaMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	conn := db.Connect()
	cut := data.Lineitem.Rows * 9 / 10
	for _, tb := range data.Tables() {
		if _, err := conn.Exec(tb.DDL); err != nil {
			t.Fatal(err)
		}
		cols := tb.Cols
		if tb.Name == "lineitem" {
			cols = slicePart(tb.Cols, 0, cut)
		}
		if err := conn.Append(tb.Name, cols...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.EncodeColumns(); err != nil {
		t.Fatal(err)
	}
	if err := conn.Append("lineitem", slicePart(data.Lineitem.Cols, cut, data.Lineitem.Rows)...); err != nil {
		t.Fatal(err)
	}
	return db, conn, data.Lineitem.Rows - cut
}

// pendingRows is the pending append-delta row count of a table.
func pendingRows(db *monetlite.Database, table string) int {
	for _, s := range db.DeltaStats() {
		if s.Table == table {
			return s.DeltaRows
		}
	}
	return 0
}

// Delta-store differential: all 22 TPC-H queries must return identical
// results whether lineitem is fully merged (base only) or carries a pending
// append-delta on top of an encoded, hash-indexed base. The fully merged
// database is the oracle; stats prove the delta really was nonempty when the
// queries ran (a merge racing ahead would make this test vacuous).
func TestAllQueriesWithPendingLineitemDelta(t *testing.T) {
	const sf = 0.01
	data := Generate(sf, 42)

	oracle := openTPCH(t, data, monetlite.Config{Parallel: true, MaxThreads: 4, NoDeltaMerge: true}, true)

	db, conn, wantDelta := openPendingDelta(t, data)
	pending := func() int { return pendingRows(db, "lineitem") }
	if got := pending(); got != wantDelta {
		t.Fatalf("lineitem pending delta = %d rows, want %d", got, wantDelta)
	}

	slow := map[int]bool{17: true, 20: true, 21: true}
	for _, q := range QueryNumbers {
		if testing.Short() && slow[q] {
			t.Logf("Q%d: skipped under -short", q)
			continue
		}
		want, err := oracle.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d oracle: %v", q, err)
		}
		got, err := conn.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d with delta: %v", q, err)
		}
		compareResults(t, fmt.Sprintf("Q%d delta-vs-merged", q), want, got)
	}

	// The delta must still be pending after the whole query sweep.
	if got := pending(); got != wantDelta {
		t.Fatalf("lineitem delta folded mid-test (pending=%d): differential was vacuous", got)
	}

	// And after an explicit merge the same queries still agree (the fold
	// itself changes nothing visible).
	if n, err := db.MergeDeltas(); err != nil || n == 0 {
		t.Fatalf("explicit merge: n=%d err=%v", n, err)
	}
	if got := pending(); got != 0 {
		t.Fatalf("lineitem delta survived explicit merge: %d", got)
	}
	for _, q := range []int{1, 6, 14} {
		want, _ := oracle.Query(Queries[q])
		got, err := conn.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d post-merge: %v", q, err)
		}
		compareResults(t, fmt.Sprintf("Q%d post-merge", q), want, got)
	}
}
