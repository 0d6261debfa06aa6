package vec

import "sync"

// This file implements the join hash table: build-side keys are partitioned
// by the high bits of their fused hash into independent per-partition
// open-addressing tables, so mitosis workers build the table without
// contention (one goroutine per partition owns its slot array exclusively).
// A key's hash determines its partition, so all rows of one distinct key land
// in the same partition and probe results — pair order included — do not
// depend on the partition count. One partition is the serial table.

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

// hashPart is one partition of a PartitionedHashTable: a distinct-key table
// plus per-key chain heads/tails. Chain links live in the shared next array
// (each effective row belongs to exactly one partition, so partitions write
// disjoint entries).
type hashPart struct {
	tbl        *OATable
	head, tail []int32
}

// PartitionedHashTable is the join hash table over one or more key columns
// of the build side: per partition, an OATable of distinct keys plus per-key
// row chains in build order. NULL keys are excluded (SQL equi-join
// semantics).
type PartitionedHashTable struct {
	ks    *KeySet
	shift uint // partition = hash >> shift (high-bit radix)
	parts []hashPart
	next  []int32 // chain link per effective index, -1 = end
}

// partOf maps a fused hash to its partition by high-bit prefix. High bits are
// used because the per-partition OATables slot by low bits — partitioning on
// low bits would collapse every partition's slot distribution.
func (pt *PartitionedHashTable) partOf(h uint64) int {
	return int(h >> pt.shift)
}

// BuildHashPartitioned constructs the join hash table over the candidate
// rows of the build-side key columns using up to `workers` goroutines. Rows
// with any NULL key are skipped (SQL equi-join semantics). parts must be a
// power of two; workers <= 1 builds on the calling goroutine. Probes answer
// identically for every parts and workers.
func BuildHashPartitioned(keys []*Vector, cands []int32, parts, workers int) *PartitionedHashTable {
	if parts < 1 {
		parts = 1
	}
	shift := uint(64)
	for p := parts; p > 1; p >>= 1 {
		shift--
	}
	ks := NewKeySet(keys, cands, true)
	pt := &PartitionedHashTable{
		ks:    ks,
		shift: shift,
		parts: make([]hashPart, parts),
		next:  make([]int32, ks.n),
	}

	// Chains link rows in ascending effective index, so they come out in
	// build order. One partition takes every non-NULL row as it comes; more
	// counting-sort the rows by partition so each worker walks a dense run
	// (the stable fill keeps row order within a partition).
	if parts == 1 {
		part := &pt.parts[0]
		part.tbl = NewOATable(ks.n/4+8, ks.equal)
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
		part.tbl = NewOATable(len(rows)/4+8, ks.equal)
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

// insert adds effective row k to its partition, appending it to its key's
// chain.
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
	n := 0
	for p := range pt.parts {
		n += pt.parts[p].tbl.Len()
	}
	return n
}

// lookup probes the owning partition with row k of the probe-side key set,
// returning the first build row of the key's chain, or -1. Collisions verify
// exactly across the two key sets.
func (pt *PartitionedHashTable) lookup(pks *KeySet, k int) int32 {
	h := pks.hash[k]
	part := &pt.parts[0]
	if len(pt.parts) > 1 {
		part = &pt.parts[pt.partOf(h)]
	}
	t := part.tbl
	i := h & t.mask
	for {
		s := t.slots[i]
		if s < 0 {
			return -1
		}
		if t.hashes[i] == h && keySetsEqual(pt.ks, t.repr[s], pks, int32(k)) {
			return part.head[s]
		}
		i = (i + 1) & t.mask
	}
}

// Probe computes the inner-join match pairs between the probe-side candidate
// rows and the build side: parallel arrays of probe row ids and build row
// ids, one entry per matching pair. Pairs are emitted in probe order, with
// matches in build-insertion order (ascending build row).
func (pt *PartitionedHashTable) Probe(keys []*Vector, cands []int32) (probeSel, buildSel []int32) {
	pks := NewKeySet(keys, cands, true)
	probeSel = make([]int32, 0, pks.n)
	buildSel = make([]int32, 0, pks.n)
	for k := 0; k < pks.n; k++ {
		if pks.null[k] {
			continue
		}
		head := pt.lookup(pks, k)
		if head < 0 {
			continue
		}
		r := pks.RowAt(k)
		for b := head; b >= 0; b = pt.next[b] {
			probeSel = append(probeSel, r)
			buildSel = append(buildSel, pt.ks.RowAt(int(b)))
		}
	}
	return probeSel, buildSel
}

// ProbeSemi returns the probe-side candidates that have at least one match
// (semi join, for EXISTS); with anti=true it returns those with none (anti
// join, for NOT EXISTS / NOT IN without NULL hazards).
func (pt *PartitionedHashTable) ProbeSemi(keys []*Vector, cands []int32, anti bool) []int32 {
	pks := NewKeySet(keys, cands, true)
	out := make([]int32, 0, pks.n)
	for k := 0; k < pks.n; k++ {
		matched := !pks.null[k] && pt.lookup(pks, k) >= 0
		if matched != anti {
			out = append(out, pks.RowAt(k))
		}
	}
	return out
}

// ProbeMark is the build-side mirror of ProbeSemi: it sets marks[b] for every
// build row b whose key some probe candidate holds, for joins that keep or
// drop *build* rows by whether the other side matches (semi/anti joins built
// on their left input). A key's rows are marked together, so a chain is
// walked once however many probe rows hit it.
func (pt *PartitionedHashTable) ProbeMark(keys []*Vector, cands []int32, marks Bitmap) {
	pks := NewKeySet(keys, cands, true)
	for k := 0; k < pks.n; k++ {
		if pks.null[k] {
			continue
		}
		head := pt.lookup(pks, k)
		if head < 0 || marks.Get(pt.ks.RowAt(int(head))) {
			continue
		}
		for b := head; b >= 0; b = pt.next[b] {
			marks.Set(pt.ks.RowAt(int(b)))
		}
	}
}
