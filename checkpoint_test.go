package monetlite

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// colFiles stats every column file of the database directory.
func colFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.col"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]os.FileInfo{}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = fi
	}
	return out
}

// rewritten lists the column files that are not the same file (inode) as in
// before: every write goes through a temporary file renamed over the old one.
func rewritten(t *testing.T, before, after map[string]os.FileInfo) []string {
	t.Helper()
	var out []string
	for name, fi := range after {
		if old, ok := before[name]; !ok || !os.SameFile(old, fi) {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// TestCheckpointRewritesOnlyStaleColumns pins the checkpoint's skip path: a
// checkpoint with nothing changed writes no column file, and after an
// append, a forced merge, or EncodeColumns newly encoding a column, exactly
// the affected files are rewritten. The database answers the same after a
// reopen, and a reopened database's checkpoint rewrites nothing either.
func TestCheckpointRewritesOnlyStaleColumns(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Config{Parallel: true, NoDeltaMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE big (k INTEGER, s VARCHAR, x DOUBLE)`)
	mustExec(t, c, `CREATE TABLE small (a INTEGER, b DOUBLE)`)
	appendBig := func(lo, n int) {
		ks, ss, xs := make([]int32, n), make([]string, n), make([]float64, n)
		for i := range ks {
			ks[i] = int32(lo + i)
			ss[i] = []string{"red", "green", "blue"}[(lo+i)%3]
			xs[i] = float64((lo+i)*7919%10007) / 3
		}
		if err := c.Append("big", ks, ss, xs); err != nil {
			t.Fatal(err)
		}
	}
	appendBig(0, 5000)
	as, bs := make([]int32, 500), make([]float64, 500)
	for i := range as {
		as[i], bs[i] = int32(i%4), float64(i*7919%10007)/7
	}
	if err := c.Append("small", as, bs); err != nil {
		t.Fatal(err)
	}

	checkpoint := func(step string, want ...string) {
		t.Helper()
		before := colFiles(t, dir)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if got := rewritten(t, before, colFiles(t, dir)); !slices.Equal(got, want) {
			t.Fatalf("%s: rewrote %v, want %v", step, got, want)
		}
	}
	all := []string{"big.k.col", "big.s.col", "big.x.col", "small.a.col", "small.b.col"}
	bigFiles := all[:3]
	checkpoint("first checkpoint", all...)
	checkpoint("second checkpoint, no change")

	appendBig(5000, 100)
	checkpoint("append to big", bigFiles...)

	appendBig(5100, 100)
	if _, err := db.MergeDeltas(); err != nil {
		t.Fatal(err)
	}
	checkpoint("forced merge of big", bigFiles...)
	checkpoint("no change after merge")

	// small is below the checkpoint's encoding floor, so it stays raw until
	// EncodeColumns: only its now-encoded column is rewritten.
	if _, err := db.EncodeColumns(); err != nil {
		t.Fatal(err)
	}
	checkpoint("EncodeColumns", "small.a.col")
	if magic := fileMagic(t, filepath.Join(dir, "small.a.col")); magic != "MLC2" {
		t.Fatalf("small.a after EncodeColumns: magic %s, want MLC2", magic)
	}
	if magic := fileMagic(t, filepath.Join(dir, "small.b.col")); magic != "MLC1" {
		t.Fatalf("small.b after EncodeColumns: magic %s, want MLC1", magic)
	}

	const q = `SELECT count(*), sum(k), min(s), max(s), sum(x), (SELECT sum(a) FROM small), (SELECT sum(b) FROM small) FROM big`
	want := strings.Join(resultGrid(mustQuery(t, c, q)), "|")
	before := colFiles(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := rewritten(t, before, colFiles(t, dir)); len(got) != 0 {
		t.Fatalf("Close after a checkpoint rewrote %v", got)
	}

	db, err = Open(dir, Config{Parallel: true, NoDeltaMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c = db.Connect()
	if got := strings.Join(resultGrid(mustQuery(t, c, q)), "|"); got != want {
		t.Fatalf("after reopen: %s, want %s", got, want)
	}
	checkpoint("reopened, queried, no change")
	appendBig(5200, 10)
	checkpoint("reopened, append to big", bigFiles...)
	if got := strings.Join(resultGrid(mustQuery(t, c, `SELECT count(*) FROM big`)), "|"); got != fmt.Sprint(5210) {
		t.Fatalf("count after append: %s", got)
	}
}

func fileMagic(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b[:4])
}

// TestCheckpointConcurrentWithReaders runs readers against a table while the
// writer appends, encodes and checkpoints — the per-column checkpoint and
// EncodeColumns fan-outs beside scans, for the race detector. Every reader
// snapshot must be internally consistent: k holds 0..count-1.
func TestCheckpointConcurrentWithReaders(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE t (k BIGINT, s VARCHAR, x DOUBLE)`)
	next := 0
	appendRows := func(n int) {
		ks, ss, xs := make([]int64, n), make([]string, n), make([]float64, n)
		for i := range ks {
			ks[i] = int64(next + i)
			ss[i] = []string{"a", "b", "c", "d"}[(next+i)/100%4]
			xs[i] = float64(next+i) / 2
		}
		if err := c.Append("t", ks, ss, xs); err != nil {
			t.Fatal(err)
		}
		next += n
	}
	appendRows(3000)

	stop := make(chan struct{})
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			rc := db.Connect()
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				res, err := rc.Query(`SELECT count(*), sum(k), count(distinct s) FROM t WHERE x >= 0`)
				if err != nil {
					errs <- err
					return
				}
				n, sum := res.Column(0).AsInts()[0], res.Column(1).AsInts()[0]
				if sum != n*(n-1)/2 {
					errs <- fmt.Errorf("snapshot of %d rows has sum(k) %d", n, sum)
					return
				}
			}
		}()
	}
	for i := 0; i < 6; i++ {
		appendRows(700)
		if i%2 == 0 {
			if _, err := db.EncodeColumns(); err != nil {
				t.Error(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
