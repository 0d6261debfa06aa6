package wal

import (
	"math"
	"math/bits"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func floatFrom(u uint64) float64 { return math.Float64frombits(u) }

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
