package storage

import (
	"container/list"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xprs/internal/diskmodel"
	"xprs/internal/obs"
	"xprs/internal/vclock"
)

// BufferPool tracks page residency with LRU replacement, sharded by
// page-key hash so parallel scan slaves do not serialize on a single
// mutex. Page contents always live in the Relation (this is a simulation
// of IO, not of memory pressure on data); the pool decides whether a
// read is charged to the disk model. A zero-capacity pool disables
// caching, which is how the §3 experiments run so that every scan pays
// its IO.
//
// Each shard runs an independent LRU over its slice of the capacity,
// which approximates global LRU under hashing. Small pools stay at one
// shard so eviction order is exactly global LRU (tests and experiments
// with tiny capacities depend on that); sharding kicks in only when the
// per-shard capacity stays meaningful.
type BufferPool struct {
	shards []poolShard
	mask   uint64

	hits, misses atomic.Int64
}

// poolShard is one independently locked LRU. The trailing pad keeps
// adjacent shards off one cache line.
type poolShard struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recent; values are pageKey
	pages map[pageKey]*list.Element
	_     [64]byte
}

type pageKey struct {
	rel  int32
	page int64
}

// minShardCapacity is the smallest per-shard capacity worth splitting
// into: below it, hash imbalance would make eviction behavior diverge
// too far from global LRU.
const minShardCapacity = 8

// poolShardCount picks the shard count: the largest power of two that
// is at most GOMAXPROCS and leaves every shard at least
// minShardCapacity pages.
func poolShardCount(capacity int) int {
	n := 1
	for n*2 <= runtime.GOMAXPROCS(0) && capacity/(n*2) >= minShardCapacity {
		n *= 2
	}
	return n
}

// NewBufferPool creates a pool holding up to capacity pages.
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 0 {
		capacity = 0
	}
	n := 1
	if capacity > 0 {
		n = poolShardCount(capacity)
	}
	bp := &BufferPool{shards: make([]poolShard, n), mask: uint64(n - 1)}
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.cap = capacity / n
		if i < capacity%n {
			sh.cap++
		}
		sh.lru = list.New()
		sh.pages = make(map[pageKey]*list.Element)
	}
	return bp
}

// hash mixes a page key into a shard index (splitmix64-style finalizer;
// rel and page alone are both sequential, so raw bits would pile onto a
// few shards).
func (k pageKey) hash() uint64 {
	x := uint64(k.page)*0x9E3779B97F4A7C15 ^ uint64(uint32(k.rel))*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// touch records an access; it returns true on a hit.
func (bp *BufferPool) touch(k pageKey) bool {
	sh := &bp.shards[k.hash()&bp.mask]
	if sh.cap == 0 {
		// Caching disabled: count the miss without taking any lock.
		bp.misses.Add(1)
		return false
	}
	sh.mu.Lock()
	if el, ok := sh.pages[k]; ok {
		sh.lru.MoveToFront(el)
		sh.mu.Unlock()
		bp.hits.Add(1)
		return true
	}
	if sh.lru.Len() >= sh.cap {
		// Recycle the evicted element so steady-state misses allocate
		// nothing.
		el := sh.lru.Back()
		delete(sh.pages, el.Value.(pageKey))
		el.Value = k
		sh.lru.MoveToFront(el)
		sh.pages[k] = el
	} else {
		sh.pages[k] = sh.lru.PushFront(k)
	}
	sh.mu.Unlock()
	bp.misses.Add(1)
	return false
}

// Touch records an access to page p of relation rel, returning true on
// a hit. It is the public probe used by benchmarks and diagnostics; the
// store's read paths go through it implicitly.
func (bp *BufferPool) Touch(rel int32, page int64) bool {
	return bp.touch(pageKey{rel: rel, page: page})
}

// Stats returns hit and miss counts.
func (bp *BufferPool) Stats() (hits, misses int64) {
	return bp.hits.Load(), bp.misses.Load()
}

// RegisterMetrics exposes the pool's hit/miss counters through a metrics
// registry. The registry reads the pool's own atomics at snapshot time;
// the hot path is untouched. A nil registry is a no-op.
func (bp *BufferPool) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterFunc("bufferpool.hits", bp.hits.Load)
	reg.RegisterFunc("bufferpool.misses", bp.misses.Load)
}

// Invalidate drops all cached residency (e.g. between experiments).
func (bp *BufferPool) Invalidate() {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		sh.lru.Init()
		sh.pages = make(map[pageKey]*list.Element)
		sh.mu.Unlock()
	}
}

// Store is the shared storage manager: the catalog of relations plus the
// clock, disk array and buffer pool every reader goes through.
type Store struct {
	Clock vclock.Clock
	Disks *diskmodel.Array
	Pool  *BufferPool

	mu     sync.Mutex
	byName map[string]*Relation
	byID   map[int32]*Relation
	nextID int32
}

// NewStore creates a store on the given clock and disk array. poolPages
// sets the buffer pool capacity (0 disables caching).
func NewStore(clock vclock.Clock, disks *diskmodel.Array, poolPages int) *Store {
	return &Store{
		Clock:  clock,
		Disks:  disks,
		Pool:   NewBufferPool(poolPages),
		byName: make(map[string]*Relation),
		byID:   make(map[int32]*Relation),
		nextID: 1,
	}
}

// RegisterMetrics exposes the store's buffer-pool counters through a
// metrics registry (nil is a no-op).
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	s.Pool.RegisterMetrics(reg)
}

// NextID reserves a relation ID for an externally built relation.
func (s *Store) NextID() int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	return id
}

// Add registers a finished relation. Names must be unique.
func (s *Store) Add(r *Relation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[r.Name]; dup {
		return fmt.Errorf("storage: relation %q already exists", r.Name)
	}
	if _, dup := s.byID[r.ID]; dup {
		return fmt.Errorf("storage: relation ID %d already exists", r.ID)
	}
	s.byName[r.Name] = r
	s.byID[r.ID] = r
	return nil
}

// Relation looks a relation up by name.
func (s *Store) Relation(name string) (*Relation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byName[name]
	return r, ok
}

// RelationByID looks a relation up by ID.
func (s *Store) RelationByID(id int32) (*Relation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.byID[id]
	return r, ok
}

// Relations returns all registered relations in ID order, so callers
// that iterate it feed deterministic sequences downstream.
func (s *Store) Relations() []*Relation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Relation, 0, len(s.byName))
	for _, r := range s.byName {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b *Relation) int { return int(a.ID) - int(b.ID) })
	return out
}

// Drop removes a relation (used for temporaries holding fragment results).
func (s *Store) Drop(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.byName[name]; ok {
		delete(s.byName, name)
		delete(s.byID, r.ID)
	}
}

// EnqueuePage reserves the IO for page p of rel (unless the buffer pool
// holds it) and returns the virtual instant the page is available,
// without blocking. Sequential scans use it to model OS readahead;
// parallel marks multi-slave scans, whose de-ordered request streams see
// at most almost-sequential disk service (§3).
func (s *Store) EnqueuePage(rel *Relation, p int64, parallel bool) time.Duration {
	if s.Pool.touch(pageKey{rel: rel.ID, page: p}) {
		return s.Clock.Now()
	}
	return s.Disks.Enqueue(rel.ID, p, parallel)
}

// ReadPage charges the IO for page p of rel (unless the buffer pool holds
// it), blocks until it is served, and returns the page in columnar form
// (see Relation.PageColsInto for dst). This is the single-stream path
// (inner rescans, utilities); parallel scans go through EnqueuePage.
func (s *Store) ReadPage(rel *Relation, p int64, dst *ColBatch) (*ColBatch, error) {
	s.Clock.SleepUntil(s.EnqueuePage(rel, p, false))
	return rel.PageColsInto(p, dst)
}

// ReadTID charges the IO for the page holding tid and appends the tuple
// to dst. Unclustered index scans use this: one (usually random) page
// read per qualifying tuple, which is why such scans are IO-bound (§3).
func (s *Store) ReadTID(rel *Relation, tid TID, dst *ColBatch) error {
	if !s.Pool.touch(pageKey{rel: rel.ID, page: tid.Page}) {
		s.Disks.Read(rel.ID, tid.Page)
	}
	return rel.AppendTID(dst, tid)
}
