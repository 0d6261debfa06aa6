package plan

import "testing"

// matchLikeOracle is the byte-wise backtracking matcher MatchLike used for
// every pattern before segment matching; it is the reference the fuzz target
// holds the segment matcher to. One fix against that matcher: it tested a
// literal byte match before '%', so a pattern '%' facing a subject '%' was
// consumed as a literal and never backtracked ('%0' LIKE '%' was false; the
// corpus keeps that input).
func matchLikeOracle(s, pattern string) bool {
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			sBack = si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			sBack++
			si = sBack
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// FuzzMatchLike checks MatchLike against the backtracking oracle on arbitrary
// strings and patterns. Seeds: the TPC-H patterns with matching and
// non-matching subjects, empty strings and patterns, overlapping segments and
// '_' mixes; testdata/fuzz/FuzzMatchLike holds the committed corpus.
func FuzzMatchLike(f *testing.F) {
	for _, seed := range [][2]string{
		{"LARGE POLISHED BRASS", "%BRASS"},
		{"BRASS STEEL", "%BRASS"},
		{"forest green metallic", "%green%"},
		{"ivory linen", "%green%"},
		{"carefully special deposits sleep; requests", "%special%requests%"},
		{"requests are special", "%special%requests%"},
		{"PROMO BURNISHED COPPER", "PROMO%"},
		{"MEDIUM POLISHED TIN", "MEDIUM POLISHED%"},
		{"blithely Customer slyly Complaints", "%Customer%Complaints%"},
		{"forest chiffon", "forest%"},
		{"", ""},
		{"", "%"},
		{"x", ""},
		{"", "_"},
		{"abababa", "%aba%aba%"},
		{"ababa", "%aba%aba%"},
		{"abcabc", "%abc"},
		{"ab", "a%b"},
		{"a", "a%a"},
		{"aXbYc", "a_b%c"},
		{"abc", "%_%_%"},
		{"h", "h%_"},
		{"hello", "h__lo"},
		{"a%b", "a%%b"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, s, pattern string) {
		if got, want := MatchLike(s, pattern), matchLikeOracle(s, pattern); got != want {
			t.Fatalf("MatchLike(%q, %q) = %v, oracle %v", s, pattern, got, want)
		}
	})
}
