package plan

import "strings"

// MatchLike implements SQL LIKE matching with % (any run) and _ (any single
// byte) wildcards. MonetDBLite removed its PCRE dependency by shipping its
// own LIKE implementation (paper §3.4 "Dependencies"); monetlite does the
// same — no regexp import anywhere in the engine.
//
// A pattern without '_' is a list of literal segments separated by '%': the
// first segment must be a prefix, the last a suffix of what the prefix leaves,
// and each middle segment is found with strings.Index in what precedes the
// suffix. Taking the leftmost match of every middle segment is exact for such
// patterns — a leftmost match leaves the longest rest for the segments after
// it — so no backtracking is needed. Only patterns with '_' run the byte-wise
// backtracking matcher.
//
// Matching is byte-wise (sufficient for ASCII workloads like TPC-H; documented
// limitation for multi-byte code points under '_').
func MatchLike(s, pattern string) bool {
	if strings.IndexByte(pattern, '_') >= 0 {
		return matchLikeBytes(s, pattern)
	}
	i := strings.IndexByte(pattern, '%')
	if i < 0 {
		return s == pattern
	}
	if !strings.HasPrefix(s, pattern[:i]) {
		return false
	}
	s, pattern = s[i:], pattern[i+1:]
	j := strings.LastIndexByte(pattern, '%')
	last := pattern[j+1:]
	if !strings.HasSuffix(s, last) {
		return false
	}
	s = s[:len(s)-len(last)]
	if j < 0 {
		return true
	}
	for mid := pattern[:j]; mid != ""; {
		seg := mid
		if k := strings.IndexByte(mid, '%'); k >= 0 {
			seg, mid = mid[:k], mid[k+1:]
		} else {
			mid = ""
		}
		k := strings.Index(s, seg)
		if k < 0 {
			return false
		}
		s = s[k+len(seg):]
	}
	return true
}

// matchLikeBytes is the iterative byte-wise matcher with backtracking on the
// last '%', for patterns containing '_'. A pattern '%' is tested first: it is
// a wildcard even where the subject holds a literal '%'.
func matchLikeBytes(s, pattern string) bool {
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
			// Backtrack: let the last % absorb one more byte.
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

// LikePrefix reports whether the pattern is a simple prefix match
// ("abc%" with no other wildcards) and returns the prefix. The executor uses
// this to turn LIKE into one range select.
func LikePrefix(pattern string) (string, bool) {
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '_':
			return "", false
		case '%':
			if i != len(pattern)-1 {
				return "", false
			}
			return pattern[:i], true
		}
	}
	return "", false
}
