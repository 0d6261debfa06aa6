package tpch

import (
	"fmt"
	"strings"
	"testing"

	"monetlite"
	"monetlite/internal/exec"
)

// TestAllQueriesSidewaysMatchOff is the sideways-filter differential over
// the 22 queries: with the key filter forced onto every join input it may
// reach, and with the runtime guard deciding, every query returns the rows
// of the raw serial engine with the filter off, cell for cell and in order —
// raw serial, encoded serial, encoded parallel, and parallel over a pending
// lineitem delta. The forced traces show the filter applied.
func TestAllQueriesSidewaysMatchOff(t *testing.T) {
	data := Generate(0.01, 42)
	rawSer := openTPCH(t, data, monetlite.Config{Parallel: false}, false)
	encSer := openTPCH(t, data, monetlite.Config{Parallel: false}, true)
	encPar := openTPCH(t, data, monetlite.Config{Parallel: true, MaxThreads: 4}, true)
	db, delta, wantDelta := openPendingDelta(t, data)
	encSer.TraceMAL = true
	query := func(conn *monetlite.Conn, q, mode int) *monetlite.Result {
		t.Helper()
		defer exec.ForceSideways(mode)()
		res, err := conn.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d sideways %+d: %v", q, mode, err)
		}
		return res
	}
	applied := 0
	slow := map[int]bool{17: true, 20: true, 21: true}
	for _, q := range QueryNumbers {
		if testing.Short() && slow[q] {
			t.Logf("Q%d: skipped under -short", q)
			continue
		}
		oracle := query(rawSer, q, -1)
		for _, mode := range []int{1, 0} {
			for _, c := range []struct {
				name string
				conn *monetlite.Conn
			}{{"raw serial", rawSer}, {"encoded serial", encSer}, {"encoded parallel", encPar}, {"pending delta", delta}} {
				compareResults(t, fmt.Sprintf("Q%d %s sideways %+d", q, c.name, mode), oracle, query(c.conn, q, mode))
				if c.conn == encSer && mode > 0 {
					applied += strings.Count(encSer.LastTrace.String(), " rows);")
				}
			}
		}
	}
	t.Logf("forced on, the encoded serial pass applied %d key filters", applied)
	if applied < 20 {
		t.Errorf("forced on, the encoded serial pass applied %d key filters, want at least 20", applied)
	}
	if got := pendingRows(db, "lineitem"); got != wantDelta {
		t.Fatalf("lineitem delta folded mid-test (pending=%d): the delta runs were vacuous", got)
	}
}
