package tpch

import "testing"

// BenchmarkTPCHQ5 is an end-to-end optimizer probe: Q5 joins six tables, so
// its hot-run time moves if the cost model starts picking a worse join order
// (the per-kernel benchmarks would not notice).
func BenchmarkTPCHQ5(b *testing.B) {
	db, _, err := NewDatabase(0.025, 42)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	conn := db.Connect()
	if _, err := conn.Query(Queries[5]); err != nil { // warm (index builds)
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := conn.Query(Queries[5])
		if err != nil {
			b.Fatal(err)
		}
		if res.NumRows() == 0 {
			b.Fatal("Q5 returned no rows")
		}
	}
}

// BenchmarkQ2JoinOrder is the wall-clock side of
// TestJoinReorderBeatsWrittenOrder: Q2 in the optimizer's join order and in
// the written one (which starts with the part x supplier cross product).
func BenchmarkQ2JoinOrder(b *testing.B) {
	db, _, err := NewDatabase(0.05, 42)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for _, written := range []bool{false, true} {
		name := "optimized"
		if written {
			name = "written"
		}
		b.Run(name, func(b *testing.B) {
			conn := db.Connect()
			conn.NoJoinReorder = written
			if _, err := conn.Query(Queries[2]); err != nil { // warm (index builds)
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Query(Queries[2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
