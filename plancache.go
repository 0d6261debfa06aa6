package monetlite

import (
	"strings"
	"sync"

	"monetlite/internal/plan"
	"monetlite/internal/sqlparse"
)

// planCache is the per-database statement cache: normalized SQL text maps to
// a parsed AST (always) and, for cacheable statements, to a fully bound and
// optimized plan. It is the embedded analogue of a server's prepared-statement
// cache — the original MonetDB spends a large fraction of short-query latency
// in its SQL front end, and MonetDBLite inherits that parser; caching the
// bound plan removes parse+bind+optimize from the hot path entirely.
//
// Soundness:
//
//   - Parse entries are pure syntax, shared freely and never invalidated.
//     Binding reads the AST without mutating it, so one AST serves any number
//     of concurrent binds.
//   - Plan entries depend on catalog shape (table/column metadata), so each is
//     stamped with the store's DDL-only schema version; a lookup whose stamp
//     is stale counts as an invalidation and rebinds. Data commits do not
//     touch the schema version, so plans survive ordinary writes.
//   - Plan entries also depend on the column statistics the cost-based
//     optimizer read (join orders, build-side choices), so each carries the
//     store's stats version too. The stats version only moves on material
//     data change (first rows, growth past the epoch thresholds, deletes),
//     so steady-state workloads keep their plans while a bulk load or big
//     delete forces re-optimization against fresh statistics.
//   - Plans bind positional parameters as constants, so only param-free
//     statements get plan entries. Parameterized statements still skip the
//     parser via the parse cache.
//   - Executed plans are read-only to the engine (the differential suite runs
//     the same plan through serial and parallel engines), so one cached plan
//     can be executing on several connections at once.
type planCache struct {
	mu    sync.Mutex
	parse clockMap[sqlparse.Statement]
	plans clockMap[cachedPlan]

	hits          int64
	misses        int64
	invalidations int64
}

type cachedPlan struct {
	q      *plan.BoundQuery
	schema uint64 // storage.Store.SchemaVersion() at bind time
	stats  uint64 // storage.Store.StatsVersion() at bind time
}

// planCacheMax bounds each map. Statement texts in a workload are few; the cap
// only guards against unbounded growth from generated SQL.
const planCacheMax = 512

func newPlanCache() *planCache {
	return &planCache{
		parse: clockMap[sqlparse.Statement]{index: map[string]int{}},
		plans: clockMap[cachedPlan]{index: map[string]int{}},
	}
}

// clockMap is a string-keyed map bounded at planCacheMax entries with
// second-chance (clock) eviction: a hit sets the entry's referenced bit, and a
// put into a full map sweeps the hand over the ring, clearing referenced bits
// until it reaches an entry nobody has hit since the last sweep — so a stream
// of one-off statements recycles its own slots and leaves the statements that
// keep being used alone.
type clockMap[V any] struct {
	slots []clockSlot[V]
	index map[string]int // key -> position in slots
	hand  int
}

type clockSlot[V any] struct {
	key string
	val V
	ref bool
}

func (c *clockMap[V]) get(key string) (V, bool) {
	i, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.slots[i].ref = true
	return c.slots[i].val, true
}

func (c *clockMap[V]) put(key string, val V) {
	if i, ok := c.index[key]; ok {
		c.slots[i].val = val
		return
	}
	if len(c.slots) < planCacheMax {
		c.index[key] = len(c.slots)
		c.slots = append(c.slots, clockSlot[V]{key: key, val: val})
		return
	}
	for c.slots[c.hand].ref {
		c.slots[c.hand].ref = false
		c.hand = (c.hand + 1) % len(c.slots)
	}
	delete(c.index, c.slots[c.hand].key)
	c.slots[c.hand] = clockSlot[V]{key: key, val: val}
	c.index[key] = c.hand
	c.hand = (c.hand + 1) % len(c.slots)
}

func (c *clockMap[V]) remove(key string) {
	i, ok := c.index[key]
	if !ok {
		return
	}
	last := len(c.slots) - 1
	c.slots[i] = c.slots[last]
	c.index[c.slots[i].key] = i
	c.slots = c.slots[:last]
	delete(c.index, key)
	if c.hand >= len(c.slots) {
		c.hand = 0
	}
}

// normalizeSQL canonicalizes a statement text for cache keying: surrounding
// whitespace and a trailing semicolon never change meaning.
func normalizeSQL(sql string) string {
	s := strings.TrimSpace(sql)
	s = strings.TrimSuffix(s, ";")
	return strings.TrimSpace(s)
}

// getParse returns the cached AST for key, if any.
func (pc *planCache) getParse(key string) (sqlparse.Statement, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.parse.get(key)
}

func (pc *planCache) putParse(key string, st sqlparse.Statement) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.parse.put(key, st)
}

// getPlan returns the cached bound plan for key if both its schema and its
// stats stamps still match, recording a hit. A stale entry is dropped and
// recorded as an invalidation; absence is a miss.
func (pc *planCache) getPlan(key string, schema, stats uint64) (*plan.BoundQuery, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	cp, ok := pc.plans.get(key)
	if !ok {
		pc.misses++
		return nil, false
	}
	if cp.schema != schema || cp.stats != stats {
		pc.plans.remove(key)
		pc.invalidations++
		pc.misses++
		return nil, false
	}
	pc.hits++
	return cp.q, true
}

func (pc *planCache) putPlan(key string, q *plan.BoundQuery, schema, stats uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.plans.put(key, cachedPlan{q: q, schema: schema, stats: stats})
}

// PlanCacheStats is a snapshot of the statement-cache counters.
type PlanCacheStats struct {
	ParseEntries  int   // cached ASTs
	PlanEntries   int   // cached bound plans
	Hits          int64 // plan lookups served from cache
	Misses        int64 // plan lookups that had to bind
	Invalidations int64 // plan entries dropped for a stale schema or stats version
}

// PlanCacheStats reports the database's statement-cache counters.
func (db *Database) PlanCacheStats() PlanCacheStats {
	pc := db.pc
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		ParseEntries:  len(pc.parse.index),
		PlanEntries:   len(pc.plans.index),
		Hits:          pc.hits,
		Misses:        pc.misses,
		Invalidations: pc.invalidations,
	}
}
