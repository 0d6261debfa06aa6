package vec

import "sync"

// This file implements the join hash table: build-side keys are partitioned
// by the high bits of their fused hash into independent per-partition
// open-addressing tables, so mitosis workers build the table without
// contention (one goroutine per partition owns its slot array exclusively).
// A key's hash determines its partition, so all rows of one distinct key land
// in the same partition and probe results — pair order included — do not
// depend on the partition count. One partition is the serial table.
//
// A one-column integer key whose build range is narrow also gets an exact
// key filter over [min, max], so that a probe row whose key the build side
// lacks is rejected before it is hashed. Where the range is dense (at most
// max(2 x build rows, 1024) values, the rule GroupBy addresses its groups
// by) the filter is a positional table of chain heads, indexed by key, and
// replaces the hash table; otherwise it is a presence bitmap tested before
// each hash lookup.

// MaxJoinPartitions bounds the partition fan-out; past ~64 partitions the
// per-partition tables get too small to amortize their fixed cost.
const MaxJoinPartitions = 64

// JoinPartitions picks a power-of-two partition count for a build on the
// given worker budget: one partition for one worker, otherwise enough that
// workers rarely idle (2x oversubscription smooths skewed partitions), never
// more than MaxJoinPartitions.
func JoinPartitions(workers int) int {
	if workers <= 1 {
		return 1
	}
	parts := 1
	for parts < 2*workers && parts < MaxJoinPartitions {
		parts <<= 1
	}
	return parts
}

// MaxKeyFilterBits bounds the bitmap key filter: a build range too sparse
// for a positional table and wider than this many values (1 MiB of bitmap)
// gets no filter.
const MaxKeyFilterBits = 1 << 23

// hashPart is one partition of a PartitionedHashTable: a distinct-key table
// plus per-key chain heads/tails. Chain links live in the shared next array
// (each build row belongs to exactly one partition, so partitions write
// disjoint entries).
type hashPart struct {
	tbl        *OATable
	head, tail []int32
}

// keyFilter is the exact key filter over the build keys x in [lo, lo+n):
// either pos, the first build row of each key's chain at x-lo (-1: no such
// key), or bits, whose bit x-lo is set for each non-NULL build key.
type keyFilter struct {
	lo   int64
	n    uint64
	pos  []int32 // positional table; nil for a bitmap
	keys int     // distinct keys in pos
	bits Bitmap
}

// PartitionedHashTable is the join hash table over one or more key columns
// of the build side: per partition, an OATable of distinct keys plus per-key
// row chains in build order, and the key filter where there is one; a
// positional filter holds the chain heads itself, and there are no
// partitions. NULL keys are excluded (SQL equi-join semantics).
type PartitionedHashTable struct {
	ks     *KeySet
	shift  uint // partition = hash >> shift (high-bit radix)
	parts  []hashPart
	next   []int32 // chain link per build row, -1 = end
	filter *keyFilter
}

// partOf maps a fused hash to its partition by high-bit prefix. High bits are
// used because the per-partition OATables slot by low bits — partitioning on
// low bits would collapse every partition's slot distribution.
func (pt *PartitionedHashTable) partOf(h uint64) int {
	return int(h >> pt.shift)
}

// BuildHashPartitioned constructs the join hash table over the build-side
// key columns using up to `workers` goroutines. Rows with any NULL key are
// skipped (SQL equi-join semantics). parts must be a power of two; workers
// <= 1 builds on the calling goroutine. Probes answer identically for every
// parts and workers.
func BuildHashPartitioned(keys []*Vector, parts, workers int) *PartitionedHashTable {
	if parts < 1 {
		parts = 1
	}
	shift := uint(64)
	for p := parts; p > 1; p >>= 1 {
		shift--
	}
	ks := NewKeySet(keys)
	pt := &PartitionedHashTable{ks: ks, next: make([]int32, ks.n)}
	if pt.filter = newKeyFilter(ks, pt.next); pt.filter != nil && pt.filter.pos != nil {
		return pt
	}
	ks.hashAll()
	pt.shift, pt.parts = shift, make([]hashPart, parts)
	eq := ks.eqFunc()

	// Chains link rows in ascending row order, so they come out in build
	// order. One partition takes every non-NULL row as it comes; more
	// counting-sort the rows by partition so each worker walks a dense run
	// (the stable fill keeps row order within a partition).
	if parts == 1 {
		part := &pt.parts[0]
		part.tbl = NewOATable(ks.n/4+8, eq)
		for k := 0; k < ks.n; k++ {
			if !ks.null[k] {
				pt.insert(part, int32(k))
			}
		}
		return pt
	}
	counts := make([]int32, parts+1)
	for k := 0; k < ks.n; k++ {
		if !ks.null[k] {
			counts[pt.partOf(ks.hash[k])+1]++
		}
	}
	for p := 0; p < parts; p++ {
		counts[p+1] += counts[p]
	}
	order := make([]int32, counts[parts])
	cursor := make([]int32, parts)
	copy(cursor, counts[:parts])
	for k := 0; k < ks.n; k++ {
		if ks.null[k] {
			continue
		}
		p := pt.partOf(ks.hash[k])
		order[cursor[p]] = int32(k)
		cursor[p]++
	}

	build := func(p int) {
		rows := order[counts[p]:counts[p+1]]
		part := &pt.parts[p]
		part.tbl = NewOATable(len(rows)/4+8, eq)
		for _, k := range rows {
			pt.insert(part, k)
		}
	}
	if workers <= 1 {
		for p := 0; p < parts; p++ {
			build(p)
		}
		return pt
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for p := 0; p < parts; p++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(p int) {
			defer wg.Done()
			build(p)
			<-sem
		}(p)
	}
	wg.Wait()
	return pt
}

// newKeyFilter builds the key filter of a one-column integer key: a
// positional table, with the build rows chained through next, when its
// non-NULL range spans at most max(2 x rows, 1024) values; a bitmap when it
// spans at most MaxKeyFilterBits; else none (nil). A build side with no
// non-NULL key gets an empty positional table, which rejects every probe
// row.
func newKeyFilter(ks *KeySet, next []int32) *keyFilter {
	if len(ks.cols) != 1 || ks.cols[0].ints == nil {
		return nil
	}
	c := ks.cols[0].ints
	lo, hi, ok := c.bounds()
	f := &keyFilter{lo: lo, pos: []int32{}}
	if !ok {
		return f
	}
	switch d := uint64(hi) - uint64(lo); {
	case d < uint64(max(2*ks.n, 1024)):
		f.n = d + 1
		f.pos = make([]int32, f.n)
		for i := range f.pos {
			f.pos[i] = -1
		}
		c.chain(f, next)
	case d < MaxKeyFilterBits:
		f.n, f.pos = d+1, nil
		f.bits = NewBitmap(int(f.n))
		c.setBits(f)
	default:
		return nil
	}
	return f
}

// has reports whether some build row holds key x. A NULL probe key is the
// type's smallest value, below every non-NULL key, so it fails the range
// test like any key outside [lo, lo+n).
func (f *keyFilter) has(x int64) bool {
	d := uint64(x) - uint64(f.lo)
	return d < f.n && f.bits.Get(int32(d))
}

// KeyFilter describes the table's key filter: its width in keys, and
// whether it is a positional table rather than a bitmap; ok is false when
// the table has none.
func (pt *PartitionedHashTable) KeyFilter() (width int, positional, ok bool) {
	if pt.filter == nil {
		return 0, false, false
	}
	return int(pt.filter.n), pt.filter.pos != nil, true
}

// insert adds build row k to its partition, appending it to its key's chain.
func (pt *PartitionedHashTable) insert(part *hashPart, k int32) {
	pt.next[k] = -1
	id, fresh := part.tbl.Insert(k, pt.ks.hash[k])
	if fresh {
		part.head = append(part.head, k)
		part.tail = append(part.tail, k)
	} else {
		pt.next[part.tail[id]] = k
		part.tail[id] = k
	}
}

// Len returns the number of distinct non-NULL keys in the table.
func (pt *PartitionedHashTable) Len() int {
	if pt.filter != nil && pt.filter.pos != nil {
		return pt.filter.keys
	}
	n := 0
	for p := range pt.parts {
		n += pt.parts[p].tbl.Len()
	}
	return n
}

// partFor returns the partition owning fused hash h.
func (pt *PartitionedHashTable) partFor(h uint64) *hashPart {
	if len(pt.parts) == 1 {
		return &pt.parts[0]
	}
	return &pt.parts[pt.partOf(h)]
}

// lookup probes with row k of the probe-side key set, whose fused hash is h,
// returning the first build row of the key's chain, or -1. Collisions verify
// exactly across the two key sets.
func (pt *PartitionedHashTable) lookup(pks *KeySet, k int32, h uint64) int32 {
	part := pt.partFor(h)
	t := part.tbl
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s < 0 {
			return -1
		}
		if t.hashes[i] == h && keySetsEqual(pt.ks, t.repr[s], pks, k) {
			return part.head[s]
		}
	}
}

// lookupInt is lookup for a one-column integer key x, compared directly
// against the build column.
func lookupInt[T intKey](pt *PartitionedHashTable, build []T, x T) int32 {
	h := HashInt64(HashSeed, int64(x))
	part := pt.partFor(h)
	t := part.tbl
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s < 0 {
			return -1
		}
		if t.hashes[i] == h && build[t.repr[s]] == x {
			return part.head[s]
		}
	}
}

// probeBlock is a probe's reused buffer: the chain heads of one block of
// probe rows and, unless the key is one integer column, the hashes and NULL
// flags they were found by.
type probeBlock struct {
	heads []int32
	hash  []uint64
	null  []bool
}

func newProbeBlock(pks *KeySet) *probeBlock {
	m := min(pks.n, hashBlock)
	b := &probeBlock{heads: make([]int32, m)}
	if len(pks.cols) > 1 || pks.cols[0].ints == nil {
		b.hash, b.null = make([]uint64, m), make([]bool, m)
	}
	return b
}

// chainHeads returns the first build row of the key chain of each probe row
// in [lo, hi), -1 where the key is NULL or absent. A one-column integer key
// is read in place: looked up in a positional table, or behind a bitmap
// filter if the table has one; other keys are hashed as a block first.
func (pt *PartitionedHashTable) chainHeads(pks *KeySet, lo, hi int, b *probeBlock) []int32 {
	heads := b.heads[:hi-lo]
	if b.hash == nil {
		pks.cols[0].ints.heads(pt, pt.ks.cols[0].ints, lo, hi, heads)
		return heads
	}
	pks.hashRows(lo, hi, b.hash, b.null)
	for k := range heads {
		heads[k] = -1
		if !b.null[k] {
			heads[k] = pt.lookup(pks, int32(lo+k), b.hash[k])
		}
	}
	return heads
}

// outCap is the capacity of a probe's output given the yield of its first
// block of probed rows: the yield extrapolated over all n rows, plus an
// eighth and a block, but no more than the extrapolation or n rows,
// whichever is larger. Most probes keep few of their rows, so sizing the
// output for every row would mostly allocate memory never used.
func outCap(yield, probed, n int) int {
	est := yield * n / probed
	return min(est+est/8+hashBlock, max(est, n))
}

// Probe computes the inner-join match pairs between the probe-side rows and
// the build side: parallel arrays of probe row ids and build row ids, one
// entry per matching pair. Pairs are emitted in probe order, with matches in
// build-insertion order (ascending build row).
func (pt *PartitionedHashTable) Probe(keys []*Vector) (probeSel, buildSel []int32) {
	pks := NewKeySet(keys)
	probeSel, buildSel = []int32{}, []int32{}
	b := newProbeBlock(pks)
	for lo := 0; lo < pks.n; lo += hashBlock {
		hi := min(lo+hashBlock, pks.n)
		heads := pt.chainHeads(pks, lo, hi, b)
		if lo == 0 {
			pairs := 0
			for _, head := range heads {
				for r := head; r >= 0; r = pt.next[r] {
					pairs++
				}
			}
			c := outCap(pairs, hi, pks.n)
			probeSel, buildSel = make([]int32, 0, c), make([]int32, 0, c)
		}
		for k, head := range heads {
			for r := head; r >= 0; r = pt.next[r] {
				probeSel = append(probeSel, int32(lo+k))
				buildSel = append(buildSel, r)
			}
		}
	}
	return probeSel, buildSel
}

// ProbeSemi returns the probe-side rows that have at least one match (semi
// join, for EXISTS); with anti=true it returns those with none (anti join,
// for NOT EXISTS / NOT IN without NULL hazards).
func (pt *PartitionedHashTable) ProbeSemi(keys []*Vector, anti bool) []int32 {
	pks := NewKeySet(keys)
	out := []int32{}
	b := newProbeBlock(pks)
	for lo := 0; lo < pks.n; lo += hashBlock {
		hi := min(lo+hashBlock, pks.n)
		heads := pt.chainHeads(pks, lo, hi, b)
		if lo == 0 {
			kept := 0
			for _, head := range heads {
				if (head >= 0) != anti {
					kept++
				}
			}
			out = make([]int32, 0, outCap(kept, hi, pks.n))
		}
		for k, head := range heads {
			if (head >= 0) != anti {
				out = append(out, int32(lo+k))
			}
		}
	}
	return out
}

// ProbeMark is the build-side mirror of ProbeSemi: it sets marks[b] for every
// build row b whose key some probe row holds, for joins that keep or drop
// *build* rows by whether the other side matches (semi/anti joins built on
// their left input). A key's rows are marked together, so a chain is walked
// once however many probe rows hit it.
func (pt *PartitionedHashTable) ProbeMark(keys []*Vector, marks Bitmap) {
	pks := NewKeySet(keys)
	b := newProbeBlock(pks)
	for lo := 0; lo < pks.n; lo += hashBlock {
		for _, head := range pt.chainHeads(pks, lo, min(lo+hashBlock, pks.n), b) {
			if head < 0 || marks.Get(head) {
				continue
			}
			for r := head; r >= 0; r = pt.next[r] {
				marks.Set(r)
			}
		}
	}
}
