package tpch

import (
	"fmt"
	"strings"
	"testing"

	"monetlite"
	"monetlite/internal/vec"
)

// Compressed-execution differential: all 22 TPC-H queries must return
// identical results whether the tables are raw or encoded (dict varchars,
// FOR integers/dates, RLE where clustered), serial or parallel. The raw
// serial engine is the oracle; trace tests below prove the encoded kernels
// actually ran rather than everything being decoded up front.

func openTPCH(t *testing.T, data *Data, cfg monetlite.Config, encode bool) *monetlite.Conn {
	t.Helper()
	db, err := monetlite.OpenInMemory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := LoadInto(db, data); err != nil {
		t.Fatal(err)
	}
	if encode {
		n, err := db.EncodeColumns()
		if err != nil {
			t.Fatal(err)
		}
		if n < 10 {
			t.Fatalf("only %d TPC-H columns encoded; dates, keys and flags alone should exceed that", n)
		}
	}
	return db.Connect()
}

func TestAllQueriesEncodedMatchRaw(t *testing.T) {
	const sf = 0.01
	data := Generate(sf, 42)
	rawSer := openTPCH(t, data, monetlite.Config{Parallel: false}, false)
	encSer := openTPCH(t, data, monetlite.Config{Parallel: false}, true)
	encPar := openTPCH(t, data, monetlite.Config{Parallel: true, MaxThreads: 4}, true)

	slow := map[int]bool{17: true, 20: true, 21: true}
	for _, q := range QueryNumbers {
		if testing.Short() && slow[q] {
			t.Logf("Q%d: skipped under -short", q)
			continue
		}
		oracle, err := rawSer.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d raw: %v", q, err)
		}
		ser, err := encSer.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d encoded serial: %v", q, err)
		}
		par, err := encPar.Query(Queries[q])
		if err != nil {
			t.Fatalf("Q%d encoded parallel: %v", q, err)
		}
		compareResults(t, fmt.Sprintf("Q%d encoded-serial", q), oracle, ser)
		compareResults(t, fmt.Sprintf("Q%d encoded-parallel", q), oracle, par)
		t.Logf("Q%d: %d rows agree", q, oracle.NumRows())
	}
}

// The encoded kernels must be visibly active on TPC-H: Q1 groups by the
// dict-encoded l_returnflag/l_linestatus and filters the FOR-encoded
// l_shipdate; Q6 range-selects on FOR codes. A silent decode-everything
// implementation would pass the differential above but fail here.
func TestEncodedKernelsActiveOnTPCH(t *testing.T) {
	const sf = 0.01
	data := Generate(sf, 42)
	conn := openTPCH(t, data, monetlite.Config{Parallel: true, MaxThreads: 4}, true)
	conn.TraceMAL = true

	if _, err := conn.Query(Queries[1]); err != nil {
		t.Fatal(err)
	}
	q1 := conn.LastTrace.String()
	for _, marker := range []string{
		"optimizer.encoding", // scan announced compressed columns
		"l_returnflag=dict(", // group keys are dict-encoded
		"dict codes",         // grouping consumed codes, not strings
	} {
		if !strings.Contains(q1, marker) {
			t.Fatalf("Q1 trace missing %q:\n%s", marker, q1)
		}
	}

	// Select kernels trace per-instruction only on the serial path (parallel
	// chunk workers fold into one bat.mergecand line), so the filter markers
	// are asserted there.
	serConn := openTPCH(t, data, monetlite.Config{Parallel: false}, true)
	serConn.TraceMAL = true
	if _, err := serConn.Query(Queries[1]); err != nil {
		t.Fatal(err)
	}
	q1ser := serConn.LastTrace.String()
	if !strings.Contains(q1ser, "encoded for(") {
		t.Fatalf("serial Q1 trace: l_shipdate filter did not run on FOR codes:\n%s", q1ser)
	}
	if _, err := serConn.Query(Queries[6]); err != nil {
		t.Fatal(err)
	}
	q6 := serConn.LastTrace.String()
	if !strings.Contains(q6, "encoded ") {
		t.Fatalf("serial Q6 trace shows no encoded selection:\n%s", q6)
	}

	// The raw connection never reports encoded kernels.
	raw := openTPCH(t, data, monetlite.Config{Parallel: true, MaxThreads: 4}, false)
	raw.TraceMAL = true
	if _, err := raw.Query(Queries[1]); err != nil {
		t.Fatal(err)
	}
	if out := raw.LastTrace.String(); strings.Contains(out, "encoded ") || strings.Contains(out, "dict codes") {
		t.Fatalf("raw Q1 trace has encoded markers:\n%s", out)
	}
}

// lineitemBytesPerRow loads lineitem at the given scale factor, encodes, and
// returns (encoded, raw) bytes per row across all 16 columns.
func lineitemBytesPerRow(tb testing.TB, sf float64) (float64, float64) {
	db, err := monetlite.OpenInMemory()
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	data := Generate(sf, 42)
	if err := LoadInto(db, data); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.EncodeColumns(); err != nil {
		tb.Fatal(err)
	}
	fps, err := db.TableFootprint("lineitem")
	if err != nil {
		tb.Fatal(err)
	}
	var encBytes, rawBytes int64
	for _, fp := range fps {
		encBytes += fp.Bytes
		rawBytes += fp.RawBytes
	}
	rows := float64(data.Lineitem.Rows)
	return float64(encBytes) / rows, float64(rawBytes) / rows
}

// Acceptance gate from the paper reproduction issue: encoding must at least
// halve lineitem's bytes/row at SF 0.1.
func TestLineitemBytesPerRowSF01(t *testing.T) {
	if testing.Short() {
		t.Skip("SF 0.1 load under -short")
	}
	enc, raw := lineitemBytesPerRow(t, 0.1)
	t.Logf("lineitem SF0.1: %.1f bytes/row encoded vs %.1f raw (%.2fx)", enc, raw, raw/enc)
	if enc*2 > raw {
		t.Fatalf("encoded %.1f bytes/row vs raw %.1f: want ≥2x reduction", enc, raw)
	}
}

// BenchmarkEncodedScan compares a filtered scan-aggregate over lineitem on
// raw and on encoded columns: running on codes must be no slower than the
// raw path. The encoded run also reports lineitem's measured bytes/row, so
// the compression ratio shows beside the throughput.
func BenchmarkEncodedScan(b *testing.B) {
	const sf = 0.05
	data := Generate(sf, 42)
	query := Queries[6] // range filters on date/discount/quantity + aggregate

	for _, mode := range []struct {
		name   string
		encode bool
	}{{"Raw", false}, {"Encoded", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := monetlite.OpenInMemory(monetlite.Config{Parallel: true})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			if err := LoadInto(db, data); err != nil {
				b.Fatal(err)
			}
			if mode.encode {
				if _, err := db.EncodeColumns(); err != nil {
					b.Fatal(err)
				}
			}
			conn := db.Connect()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Query(query); err != nil {
					b.Fatal(err)
				}
			}
			if mode.encode {
				// After ResetTimer — it deletes user-reported metrics.
				fps, err := db.TableFootprint("lineitem")
				if err != nil {
					b.Fatal(err)
				}
				var encBytes int64
				nEnc := 0
				for _, fp := range fps {
					encBytes += fp.Bytes
					if fp.Enc != vec.EncNone {
						nEnc++
					}
				}
				if nEnc == 0 {
					b.Fatal("no lineitem column encoded")
				}
				b.ReportMetric(float64(encBytes)/float64(data.Lineitem.Rows), "bytes/row")
			}
		})
	}
}
