package vec

import "sync"

// This file implements the radix-partitioned variant of the join hash table:
// build-side keys are partitioned by the high bits of their fused hash into
// independent per-partition open-addressing tables, so mitosis workers build
// the table without contention (one goroutine per partition owns its slot
// array exclusively). A key's hash determines its partition, so all rows of
// one distinct key land in the same partition and probe results — pair order
// included — are bit-identical to the serial HashTable, which the engine
// keeps as the differential oracle.

// MaxJoinPartitions bounds the partition fan-out; past ~64 partitions the
// per-partition tables get too small to amortize their fixed cost.
const MaxJoinPartitions = 64

// JoinPartitions picks a power-of-two partition count for a partitioned
// build on the given worker budget: enough partitions that workers rarely
// idle (2x oversubscription smooths skewed partitions), never more than
// MaxJoinPartitions.
func JoinPartitions(workers int) int {
	if workers < 1 {
		workers = 1
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

// PartitionedHashTable is the mitosis form of the join hash table. It
// answers the same probes as HashTable with identical output ordering.
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

// BuildHashPartitioned constructs a partitioned hash table over the candidate
// rows of the build-side key columns using up to `workers` goroutines. Rows
// with any NULL key are skipped (SQL equi-join semantics). parts must be a
// power of two; workers <= 1 builds serially (still partitioned, so probes
// are identical either way).
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

	// Counting-sort the effective rows by partition so each worker walks a
	// dense run. The stable fill preserves row order within a partition, so
	// per-key chains come out in ascending effective index — the same chain
	// order the serial HashTable produces.
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
			pt.next[k] = -1
			id, fresh := part.tbl.Insert(k, ks.hash[k])
			if fresh {
				part.head = append(part.head, k)
				part.tail = append(part.tail, k)
			} else {
				pt.next[part.tail[id]] = k
				part.tail[id] = k
			}
		}
	}
	if workers <= 1 || parts == 1 {
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

// Len returns the number of distinct non-NULL keys in the table.
func (pt *PartitionedHashTable) Len() int {
	n := 0
	for p := range pt.parts {
		n += pt.parts[p].tbl.Len()
	}
	return n
}

// lookup probes the owning partition with row k of the probe-side key set,
// returning the partition and its dense key id, or (-1, -1).
func (pt *PartitionedHashTable) lookup(pks *KeySet, k int) (int, int32) {
	h := pks.hash[k]
	p := pt.partOf(h)
	t := pt.parts[p].tbl
	i := h & t.mask
	for {
		s := t.slots[i]
		if s < 0 {
			return -1, -1
		}
		if t.hashes[i] == h && keySetsEqual(pt.ks, t.repr[s], pks, int32(k)) {
			return p, s
		}
		i = (i + 1) & t.mask
	}
}

// Probe computes inner-join match pairs exactly like HashTable.Probe: probe
// order, matches in ascending build row per probe row.
func (pt *PartitionedHashTable) Probe(keys []*Vector, cands []int32) (probeSel, buildSel []int32) {
	pks := NewKeySet(keys, cands, true)
	probeSel = make([]int32, 0, pks.n)
	buildSel = make([]int32, 0, pks.n)
	for k := 0; k < pks.n; k++ {
		if pks.null[k] {
			continue
		}
		p, id := pt.lookup(pks, k)
		if id < 0 {
			continue
		}
		r := pks.RowAt(k)
		for b := pt.parts[p].head[id]; b >= 0; b = pt.next[b] {
			probeSel = append(probeSel, r)
			buildSel = append(buildSel, pt.ks.RowAt(int(b)))
		}
	}
	return probeSel, buildSel
}

// ProbeSemi mirrors HashTable.ProbeSemi over the partitioned table.
func (pt *PartitionedHashTable) ProbeSemi(keys []*Vector, cands []int32, anti bool) []int32 {
	pks := NewKeySet(keys, cands, true)
	out := make([]int32, 0, pks.n)
	for k := 0; k < pks.n; k++ {
		matched := false
		if !pks.null[k] {
			_, id := pt.lookup(pks, k)
			matched = id >= 0
		}
		if matched != anti {
			out = append(out, pks.RowAt(k))
		}
	}
	return out
}

// ProbeMark mirrors HashTable.ProbeMark over the partitioned table.
func (pt *PartitionedHashTable) ProbeMark(keys []*Vector, cands []int32, marks Bitmap) {
	pks := NewKeySet(keys, cands, true)
	for k := 0; k < pks.n; k++ {
		if pks.null[k] {
			continue
		}
		p, id := pt.lookup(pks, k)
		if id < 0 || marks.Get(pt.ks.RowAt(int(pt.parts[p].head[id]))) {
			continue
		}
		for b := pt.parts[p].head[id]; b >= 0; b = pt.next[b] {
			marks.Set(pt.ks.RowAt(int(b)))
		}
	}
}

// JoinTable is the common probe interface of the serial and partitioned join
// hash tables; the executor picks the implementation per query.
type JoinTable interface {
	Len() int
	Probe(keys []*Vector, cands []int32) (probeSel, buildSel []int32)
	ProbeSemi(keys []*Vector, cands []int32, anti bool) []int32
	ProbeMark(keys []*Vector, cands []int32, marks Bitmap)
}

var (
	_ JoinTable = (*HashTable)(nil)
	_ JoinTable = (*PartitionedHashTable)(nil)
)
