package wal

import (
	"os"
	"path/filepath"
	"testing"

	"monetlite/internal/mtypes"
	"monetlite/internal/vec"
)

func sampleCols() []*vec.Vector {
	a := vec.New(mtypes.Int, 3)
	copy(a.I32, []int32{1, 2, 3})
	a.SetNull(1)
	b := vec.New(mtypes.Varchar, 3)
	copy(b.Str, []string{"x", vec.StrNull, "z"})
	c := vec.New(mtypes.Double, 3)
	copy(c.F64, []float64{1.5, 2.5, 3.5})
	d := vec.New(mtypes.Decimal(15, 2), 3)
	copy(d.I64, []int64{100, 200, 300})
	return []*vec.Vector{a, b, c, d}
}

func TestAppendCommitReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindCreateTable, MetaJS: []byte(`{"Name":"t"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindAppend, Table: "t", Cols: sampleCols()}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: KindDelete, Table: "t", RowIDs: []int32{0, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(2); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var groups [][]Record
	var versions []uint64
	err = Replay(path, func(recs []Record, v uint64) error {
		cp := make([]Record, len(recs))
		copy(cp, recs)
		groups = append(groups, cp)
		versions = append(versions, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || versions[0] != 1 || versions[1] != 2 {
		t.Fatalf("groups=%d versions=%v", len(groups), versions)
	}
	if groups[0][0].Kind != KindCreateTable || groups[0][1].Kind != KindAppend {
		t.Fatalf("group 0 kinds: %c %c", groups[0][0].Kind, groups[0][1].Kind)
	}
	cols := groups[0][1].Cols
	if len(cols) != 4 {
		t.Fatalf("cols = %d", len(cols))
	}
	if cols[0].I32[0] != 1 || !cols[0].IsNull(1) {
		t.Fatalf("int col: %v", cols[0].I32)
	}
	if cols[1].Str[0] != "x" || !cols[1].IsNull(1) {
		t.Fatalf("str col: %v", cols[1].Str)
	}
	if cols[2].F64[2] != 3.5 {
		t.Fatalf("double col: %v", cols[2].F64)
	}
	if cols[3].I64[1] != 200 || cols[3].Typ.Scale != 2 {
		t.Fatalf("decimal col: %v scale %d", cols[3].I64, cols[3].Typ.Scale)
	}
	if got := groups[1][0].RowIDs; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("delete rowids: %v", got)
	}
}

// Crash injection: an uncommitted tail (no commit marker) must be ignored.
func TestReplayIgnoresUncommittedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := Open(path)
	l.Append(Record{Kind: KindAppend, Table: "t", Cols: sampleCols()})
	l.Commit(1)
	// Uncommitted writes followed by "crash" (close without commit).
	l.Append(Record{Kind: KindAppend, Table: "t", Cols: sampleCols()})
	l.Close()

	n := 0
	if err := Replay(path, func(recs []Record, v uint64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d groups, want 1", n)
	}
}

// Crash injection: a torn record (truncated mid-payload) stops replay cleanly.
func TestReplayTruncatedRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := Open(path)
	l.Append(Record{Kind: KindAppend, Table: "t", Cols: sampleCols()})
	l.Commit(1)
	l.Append(Record{Kind: KindAppend, Table: "t", Cols: sampleCols()})
	l.Commit(2)
	l.Close()

	data, _ := os.ReadFile(path)
	// Chop into the middle of the last record group.
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Replay(path, func(recs []Record, v uint64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d groups after truncation, want 1", n)
	}
}

// Crash injection: bit corruption in the tail is detected by CRC.
func TestReplayCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := Open(path)
	l.Append(Record{Kind: KindAppend, Table: "t", Cols: sampleCols()})
	l.Commit(1)
	l.Append(Record{Kind: KindDelete, Table: "t", RowIDs: []int32{1}})
	l.Commit(2)
	l.Close()

	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0xFF // flip bits in the tail
	os.WriteFile(path, data, 0o644)
	n := 0
	if err := Replay(path, func(recs []Record, v uint64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d groups with corrupt tail, want 1", n)
	}
}

func TestResetTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := Open(path)
	l.Append(Record{Kind: KindDropTable, Table: "t"})
	l.Commit(1)
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	l.Append(Record{Kind: KindDropTable, Table: "u"})
	l.Commit(2)
	l.Close()
	var tables []string
	Replay(path, func(recs []Record, v uint64) error {
		for _, r := range recs {
			tables = append(tables, r.Table)
		}
		return nil
	})
	if len(tables) != 1 || tables[0] != "u" {
		t.Fatalf("after reset: %v", tables)
	}
}

func TestReplayMissingFile(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "none.log"), nil); err != nil {
		t.Fatal("missing WAL should be fine (fresh database)")
	}
}

func TestOrderIndexRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := Open(path)
	l.Append(Record{Kind: KindOrderIndex, Table: "t", Col: "a"})
	l.Commit(1)
	l.Close()
	var got Record
	Replay(path, func(recs []Record, v uint64) error { got = recs[0]; return nil })
	if got.Kind != KindOrderIndex || got.Table != "t" || got.Col != "a" {
		t.Fatalf("order index record: %+v", got)
	}
}

// Regression for the startup-recovery gap: a torn tail used to persist
// forever because Open appended write-only and never repaired the file. Open
// must truncate back to the last committed frame and report what it removed.
func TestOpenRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != 0 || rep.Truncated != 0 || rep.Tail != "" {
		t.Fatalf("fresh log report: %+v", rep)
	}
	l.Append(Record{Kind: KindCreateTable, MetaJS: []byte(`{"Name":"t"}`)})
	l.Append(Record{Kind: KindAppend, Table: "t", Cols: sampleCols()})
	if err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Crash artifact: half a frame of garbage at the tail.
	committed, _ := os.ReadFile(path)
	torn := append(append([]byte(nil), committed...), 0x13, 0x37, 0x00, 0x00, 0xAB)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rep2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Committed != 1 || rep2.Version != 1 {
		t.Fatalf("report after torn tail: %+v", rep2)
	}
	if rep2.Truncated != 5 || rep2.Tail == "" {
		t.Fatalf("torn tail not repaired: %+v", rep2)
	}
	if data, _ := os.ReadFile(path); len(data) != len(committed) {
		t.Fatalf("file is %d bytes, want %d (tail must be physically removed)", len(data), len(committed))
	}
	// The repaired log accepts new commits, and replay sees a clean history.
	l2.Append(Record{Kind: KindDelete, Table: "t", RowIDs: []int32{0}})
	if err := l2.Commit(2); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	var versions []uint64
	if err := Replay(path, func(recs []Record, v uint64) error {
		versions = append(versions, v)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0] != 1 || versions[1] != 2 {
		t.Fatalf("replayed versions %v, want [1 2]", versions)
	}
}

// A tail whose frames are intact but that never reached its commit marker is
// truncated the same way (uncommitted writes of a crashed transaction).
func TestOpenTruncatesUncommittedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := Open(path)
	l.Append(Record{Kind: KindAppend, Table: "t", Cols: sampleCols()})
	l.Commit(1)
	l.Append(Record{Kind: KindAppend, Table: "t", Cols: sampleCols()})
	l.Close() // flushes the uncommitted record, simulating a crash pre-marker

	_, rep, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != 1 || rep.Truncated == 0 || rep.Tail == "" {
		t.Fatalf("uncommitted tail not repaired: %+v", rep)
	}
}

// Log.Replay reads the repaired log through the same handle Open returned.
func TestLogReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := Open(path)
	l.Append(Record{Kind: KindDropTable, Table: "t"})
	l.Commit(7)
	l.Close()

	l2, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	if err := l2.Replay(func(recs []Record, v uint64) error { got = v; return nil }); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("replayed version %d, want 7", got)
	}
	l2.Close()
}

// AppendCommit/SyncTo: sequences are monotone, and a sync for a later
// sequence makes earlier ones durable for free (single-file fsync order).
func TestGroupCommitSequences(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _ := Open(path)
	defer l.Close()
	s1, err := l.AppendCommit(1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := l.AppendCommit(2)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != s1+1 {
		t.Fatalf("sequences %d, %d", s1, s2)
	}
	if err := l.SyncTo(s2); err != nil {
		t.Fatal(err)
	}
	if err := l.SyncTo(s1); err != nil { // already durable: no second fsync path needed
		t.Fatal(err)
	}
}

// TestEncodedVectorSizeIsExact pins the presizing of log records: the
// computed size equals what encodeVector writes, for every kind and for
// string lengths on both sides of a uvarint byte boundary.
func TestEncodedVectorSizeIsExact(t *testing.T) {
	long := string(make([]byte, 200))
	for _, typ := range []mtypes.Type{mtypes.Bool, mtypes.TinyInt, mtypes.SmallInt, mtypes.Int,
		mtypes.Date, mtypes.BigInt, mtypes.Decimal(9, 2), mtypes.Double, mtypes.Varchar} {
		for _, n := range []int{0, 1, 127, 128, 300} {
			v := vec.New(typ, n)
			for i := range v.Str {
				v.Str[i] = long[:i%len(long)]
			}
			out, err := encodeVector([]byte{'x'}, v)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := encodedVectorSize(v), len(out)-1; got != want {
				t.Fatalf("%s n=%d: size %d, encodeVector wrote %d", typ, n, got, want)
			}
		}
	}
}
