package exec

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"xprs/internal/storage"
)

// The build side of a hash join is a radix-partitioned, open-addressed
// table. Each build slave hashes its batches into P = 2^k private
// partition buffers (columnar batches, no mutex on the hot path); when
// a slave exits, its buffers are handed to the shared table under one
// short lock. Sealing — which runs once, after the building fragment
// completes and before any probe — builds a per-partition
// open-addressed index: linear probing over power-of-two slot arrays,
// with all build rows of a partition stored grouped by key in one flat
// columnar batch, so a probe resolves to a (store, start, count) row
// range and the join emits by gathering column values — no tuple
// structs, no per-match allocation anywhere. Probes take no lock.
//
// The hash function is an odd-multiplier mix, hence a bijection on 32
// bits: two keys are equal exactly when their hashes are. The table
// exploits that everywhere. Builders cache each row's hash next to it,
// so sealing never re-reads key values; the probe index packs each slot
// into one uint64 — hash in the top half, the key group's flat offset
// and length in the bottom half — so a probe resolves hit or miss,
// group start and group length from a single 8-byte load. Hash 0
// doubles as the empty-slot marker; the one key that hashes to 0 (key
// 0) lives in a dedicated per-partition group instead of the slot array.
//
// Skew handling: a key whose multiplicity exceeds heavyKeyThreshold is
// moved out of the light groups into a dedicated heavy-hitter group, so
// the open table's offsets and the per-partition working set stay
// bounded no matter how skewed the build side is (cf. the join product
// skew literature: without a fallback, one hot key serializes whatever
// touches its partition).
//
// The flat store is laid out light groups first, then the zero-hash
// group, then the heavy groups. Sealing computes each input row's
// destination index first (a two-pass counting scheme), inverts the
// permutation, and then gathers rows in destination order: text columns
// append sequentially into the store's shared buffer, which a scatter
// could not do. Per-key row order is chunk order (the order builders
// flushed).
//
// Pruned tables. A table stores only the build columns its probe's
// consumer reads (plan.Fragment.Need); the rest are never copied. A
// table that keeps no column at all is a counting table: builders keep
// only the cached hashes, and sealing stops after the counting pass —
// no permutation, no gather — because every probe needs only group
// offsets and lengths. Its store is an all-pruned placeholder batch.
//
// Partition count is a pure wall-clock knob: results, virtual-clock
// totals and disk statistics are independent of it (the modeled insert
// and probe CPU charges are per tuple, not per partition), which
// TestBatchSweepHashPartitions proves at counts 1, 4 and 16.

// DefaultHashPartitions is the build-side partition count when neither
// the fragment hint nor Engine.HashPartitions picks one.
const DefaultHashPartitions = 16

// Slot layout: hash(32) | start(24) | count(8).
const (
	slotCountBits = 8
	slotCountMask = 1<<slotCountBits - 1
	slotStartBits = 24
	slotHashShift = slotCountBits + slotStartBits

	// heavyMark in the count field tags a heavy-hitter slot whose start
	// field holds the heavy-group index instead of a flat offset.
	heavyMark = slotCountMask

	// maxPartTuples bounds one partition's row count so flat offsets
	// fit the 24-bit start field.
	maxPartTuples = 1<<slotStartBits - 1
)

// heavyKeyThreshold is the key multiplicity beyond which a key's build
// rows move to a dedicated heavy-hitter group (the largest multiplicity
// the slot's 8-bit inline count can express).
const heavyKeyThreshold = heavyMark - 1

// hashKey is Fibonacci hashing: the top bits select the partition, the
// low bits the slot. The multiplier is odd, so the map is a bijection on
// uint32 — hash equality is key equality.
func hashKey(k int32) uint32 {
	return uint32(k) * 0x9E3779B9
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len32(uint32(n-1))
}

// colChunk is one flushed columnar build buffer: a dense batch plus the
// cached hash of each row's key, index-aligned. The hash slice is boxed
// so it can round-trip through the engine's pool without re-allocating
// its header. A counting table's chunks carry no batch (cb nil).
type colChunk struct {
	cb  *storage.ColBatch
	hvs *[]uint32
}

// sealScratch is the transient state of one partition seal, recycled
// through the engine pool: slot memos, the destination permutation and
// its inverse, heavy-group cursors and chunk base offsets.
type sealScratch struct {
	slotOf    []uint32
	perm      []int32
	invDst    []int32
	heavyNext []int32
	bases     []int32
}

// growU32 and growI32 resize pooled scratch to exactly n entries
// without zeroing (callers overwrite every entry they read).
func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// colGroup is the sealed home of one heavy-hitter or zero-hash key: a
// row range of the partition's flat store.
type colGroup struct {
	hv    uint32
	start int32
	count int32
}

// colPart is one sealed partition.
type colPart struct {
	store *storage.ColBatch // flat, grouped by key; nil when empty
	slots []uint64          // packed hash(32)|start(24)|count(8), 0 = empty
	heavy []colGroup

	zeroStart int32
	zeroCount int32
}

// ColHashTable is the shared-memory hash table a HashOut fragment
// builds and a HashJoin probe consumes.
type ColHashTable struct {
	Schema storage.Schema
	Col    int

	// prune lists the build columns no probe reads (ascending); they are
	// never stored. keepNone marks a counting table (every column
	// pruned).
	prune    []int
	keepNone bool

	eng       *Engine // batch recycling; nil allocates directly
	partShift uint
	sealProcs int

	mu sync.Mutex
	n  int
	// chunks holds the unsealed build input: per partition, the private
	// buffers flushed by exiting build slaves, in flush order. The
	// per-partition slices keep their capacity across queries (the table
	// itself recycles through the engine pool), so steady-state flushes
	// never grow them.
	chunks [][]colChunk
	sealed bool

	sealOnce sync.Once
	parts    []colPart
}

// NewColHashTable creates an empty columnar table keyed on the given
// column of the build schema, storing every column. eng (optional)
// supplies batch recycling.
func NewColHashTable(eng *Engine, schema storage.Schema, col int, partitions, sealProcs int) *ColHashTable {
	return newColHashTable(eng, schema, col, nil, partitions, sealProcs)
}

// newColHashTable is NewColHashTable for a table that never stores the
// build columns listed in prune (ascending).
func newColHashTable(eng *Engine, schema storage.Schema, col int, prune []int, partitions, sealProcs int) *ColHashTable {
	if partitions < 1 {
		partitions = 1
	}
	p := ceilPow2(partitions)
	if sealProcs < 1 {
		sealProcs = 1
	}
	var h *ColHashTable
	if eng != nil {
		if v := eng.chtPool.Get(); v != nil {
			h = v.(*ColHashTable)
		}
	}
	if h == nil {
		h = &ColHashTable{}
	}
	h.Schema = schema
	h.Col = col
	h.prune = prune
	h.keepNone = len(prune) == len(schema.Cols)
	h.eng = eng
	h.partShift = uint(32 - bits.Len32(uint32(p)-1))
	h.sealProcs = sealProcs
	h.n = 0
	h.sealed = false
	h.sealOnce = sync.Once{}
	if cap(h.chunks) < p {
		h.chunks = make([][]colChunk, p)
	} else {
		h.chunks = h.chunks[:p]
	}
	return h
}

// newBatch returns an empty batch shaped for the stored columns.
func (h *ColHashTable) newBatch(capRows int) *storage.ColBatch {
	if h.eng != nil {
		return h.eng.getColBatch(h.Schema, capRows, h.prune)
	}
	b := &storage.ColBatch{}
	b.InitPruned(h.Schema, capRows, h.prune)
	return b
}

// newChunk returns an empty build buffer with room for capRows rows.
func (h *ColHashTable) newChunk(capRows int) colChunk {
	var c colChunk
	if h.eng != nil {
		c.hvs = h.eng.getHvs(capRows)
	} else {
		c.hvs = new([]uint32)
	}
	if !h.keepNone {
		c.cb = h.newBatch(capRows)
	}
	return c
}

// Len returns the number of inserted rows.
func (h *ColHashTable) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// ColBuilder is one build slave's private view of the table: batches
// partition into per-partition columnar buffers with no locking; Flush
// hands the buffers to the shared table in one lock round-trip.
type ColBuilder struct {
	ht    *ColHashTable
	parts []colChunk
	n     int
}

// Builder creates a private builder for one build slave.
func (h *ColHashTable) Builder() *ColBuilder {
	return h.builderIn(&ColBuilder{})
}

// builderIn initializes b as a private builder for this table, reusing
// its partition-buffer slice when capacity allows (the slave-context
// pool retains one builder per slave across tasks and queries).
func (h *ColHashTable) builderIn(b *ColBuilder) *ColBuilder {
	b.ht = h
	if cap(b.parts) < len(h.chunks) {
		b.parts = make([]colChunk, len(h.chunks))
	} else {
		b.parts = b.parts[:len(h.chunks)]
		clear(b.parts)
	}
	b.n = 0
	return b
}

// KeyTypeError reports a hash-join key column that is not an int4
// vector: the build side's hash column ("hash") or the probe column
// ("probe"). The optimizer rejects such joins, so only a hand-built plan
// reaches it.
type KeyTypeError struct {
	Side string
	Col  int
}

func (e *KeyTypeError) Error() string {
	return fmt.Sprintf("exec: %s column %d is not an int4 vector", e.Side, e.Col)
}

// InsertBatch partitions the live rows of one batch into the builder's
// private buffers, caching each row's hash so sealing never recomputes
// it. The key column is validated once per batch.
func (b *ColBuilder) InsertBatch(cb *storage.ColBatch) error {
	col := b.ht.Col
	if cb.Live() == 0 {
		return nil
	}
	if col < 0 || col >= len(cb.Vecs) {
		return fmt.Errorf("exec: hash column %d out of range", col)
	}
	if cb.Vecs[col].Typ != storage.Int4 || cb.Vecs[col].Ints == nil {
		return &KeyTypeError{Side: "hash", Col: col}
	}
	keys := cb.Vecs[col].Ints
	shift := b.ht.partShift
	live := cb.Live()
	for i := 0; i < live; i++ {
		row := cb.RowAt(i)
		hv := hashKey(keys[row])
		c := &b.parts[hv>>shift]
		if c.hvs == nil {
			*c = b.ht.newChunk(live)
		}
		if c.cb != nil {
			c.cb.AppendRow(cb, row)
		}
		*c.hvs = append(*c.hvs, hv)
	}
	b.n += live
	return nil
}

// Flush publishes the builder's buffers to the shared table. The builder
// is empty afterwards and may be reused. Flushing after Seal panics:
// slaves flush at exit and sealing happens when the last slave
// completes the fragment.
func (b *ColBuilder) Flush() {
	if b.n == 0 {
		return
	}
	h := b.ht
	h.mu.Lock()
	if h.sealed {
		h.mu.Unlock()
		panic("exec: hash-table builder flushed after seal")
	}
	for p := range b.parts {
		if b.parts[p].hvs != nil {
			h.chunks[p] = append(h.chunks[p], b.parts[p])
		}
	}
	h.n += b.n
	h.mu.Unlock()
	clear(b.parts)
	b.n = 0
}

// Seal builds the per-partition probe indexes. Idempotent; must complete
// before the first probe (the executor seals when the building fragment
// finalizes, and fragment completion orders every insert before any
// probe).
func (h *ColHashTable) Seal() {
	h.sealOnce.Do(h.seal)
}

func (h *ColHashTable) seal() {
	h.mu.Lock()
	chunks := h.chunks
	h.sealed = true
	h.mu.Unlock()

	if cap(h.parts) < len(chunks) {
		h.parts = make([]colPart, len(chunks))
	} else {
		h.parts = h.parts[:len(chunks)]
	}
	procs := h.sealProcs
	if g := runtime.GOMAXPROCS(0); procs > g {
		procs = g
	}
	if procs <= 1 || len(chunks) == 1 {
		for p := range chunks {
			h.parts[p] = h.sealColPartition(chunks[p])
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int, len(chunks))
	for p := range chunks {
		next <- p
	}
	close(next)
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range next {
				h.parts[p] = h.sealColPartition(chunks[p])
			}
		}()
	}
	wg.Wait()
}

// sealColPartition builds one partition's index and flat columnar store
// from its flushed chunks: a counting pass fills the slot counts, a
// destination pass assigns every row its flat index, and the inverse
// permutation gathers rows in destination order, because text vectors
// only append. A counting table stops after the counting pass.
func (h *ColHashTable) sealColPartition(chunks []colChunk) colPart {
	total := 0
	for _, c := range chunks {
		total += len(*c.hvs)
	}
	if total == 0 {
		return colPart{}
	}
	if total > maxPartTuples {
		panic(fmt.Sprintf("exec: hash partition holds %d tuples, limit %d — raise the partition count", total, maxPartTuples))
	}
	capacity := ceilPow2(total + total/2)
	if capacity < 4 {
		capacity = 4
	}
	part := colPart{slots: make([]uint64, capacity)}
	slots := part.slots
	mask := capacity - 1
	// Transient seal state comes from the engine pool; the standalone
	// (engine-less) path allocates it locally.
	var scr *sealScratch
	if h.eng != nil {
		scr = h.eng.getSealScratch()
	} else {
		scr = &sealScratch{}
	}
	// Pass 1: count key multiplicities into the slot counts (saturating
	// at heavyMark), memoizing each row's slot. ^0 marks the zero-hash
	// key.
	scr.slotOf = growU32(scr.slotOf, total)
	slotOf := scr.slotOf
	zeroCount := int32(0)
	hasHeavy := false
	j := 0
	for _, c := range chunks {
		for _, hv := range *c.hvs {
			if hv == 0 {
				zeroCount++
				slotOf[j] = ^uint32(0)
				j++
				continue
			}
			i := int(hv) & mask
			for {
				s := slots[i]
				if uint32(s>>slotHashShift) == hv {
					if s&slotCountMask < heavyMark {
						slots[i] = s + 1
					} else {
						hasHeavy = true
					}
					break
				}
				if s == 0 {
					slots[i] = uint64(hv)<<slotHashShift | 1
					break
				}
				i = (i + 1) & mask
			}
			slotOf[j] = uint32(i)
			j++
		}
	}
	// Carve heavy hitters and prefix-sum the light groups into flat
	// offsets. Heavy groups need their true multiplicities (the saturated
	// count lost them), so a rare extra pass recounts them.
	light := uint64(0)
	for i := range slots {
		s := slots[i]
		if s == 0 {
			continue
		}
		cnt := s & slotCountMask
		if cnt == heavyMark {
			hasHeavy = true
			part.heavy = append(part.heavy, colGroup{hv: uint32(s >> slotHashShift)})
			slots[i] = s&^(uint64(maxPartTuples)<<slotCountBits) | uint64(len(part.heavy)-1)<<slotCountBits
			continue
		}
		slots[i] = s | light<<slotCountBits
		light += cnt
	}
	part.zeroStart = int32(light)
	part.zeroCount = zeroCount
	if hasHeavy {
		for j := range slotOf {
			si := slotOf[j]
			if si == ^uint32(0) {
				continue
			}
			if s := slots[si]; s&slotCountMask == heavyMark {
				part.heavy[s>>slotCountBits&maxPartTuples].count++
			}
		}
		hstart := part.zeroStart + zeroCount
		for g := range part.heavy {
			part.heavy[g].start = hstart
			hstart += part.heavy[g].count
		}
	}
	if h.keepNone {
		// Every slot already holds its group's offset and length.
		part.store = h.newBatch(0)
		part.store.N = total
		h.recycle(chunks, scr)
		return part
	}
	// Pass 2: compute each input row's destination (advancing the start
	// fields as a counting-sort scatter would), then invert.
	scr.perm = growI32(scr.perm, total)
	perm := scr.perm
	scr.heavyNext = growI32(scr.heavyNext, len(part.heavy))
	heavyNext := scr.heavyNext
	clear(heavyNext)
	zs := part.zeroStart
	j = 0
	for _, c := range chunks {
		for range *c.hvs {
			si := slotOf[j]
			if si == ^uint32(0) {
				perm[j] = zs
				zs++
				j++
				continue
			}
			s := slots[si]
			if s&slotCountMask == heavyMark {
				g := s >> slotCountBits & maxPartTuples
				perm[j] = part.heavy[g].start + heavyNext[g]
				heavyNext[g]++
				j++
				continue
			}
			perm[j] = int32(s >> slotCountBits & maxPartTuples)
			slots[si] = s + 1<<slotCountBits
			j++
		}
	}
	for i := range slots {
		s := slots[i]
		if cnt := s & slotCountMask; s != 0 && cnt != heavyMark {
			slots[i] = s - cnt<<slotCountBits
		}
	}
	// Gather in destination order so text buffers fill sequentially.
	scr.invDst = growI32(scr.invDst, total)
	invDst := scr.invDst
	for src, dst := range perm {
		invDst[dst] = int32(src)
	}
	part.store = h.newBatch(total)
	// Map a global row index back to (chunk, row) with running bases;
	// chunk counts are tiny (one per flushing slave), so a linear walk
	// beats any index structure.
	scr.bases = growI32(scr.bases, len(chunks)+1)
	bases := scr.bases
	bases[0] = 0
	for i, c := range chunks {
		bases[i+1] = bases[i] + int32(len(*c.hvs))
	}
	for dst := 0; dst < total; dst++ {
		src := invDst[dst]
		ci := 0
		for int32(src) >= bases[ci+1] {
			ci++
		}
		part.store.AppendRow(chunks[ci].cb, int(src-bases[ci]))
	}
	h.recycle(chunks, scr)
	return part
}

// recycle returns a sealed partition's dead chunk buffers and seal
// scratch to the engine pools for future builds.
func (h *ColHashTable) recycle(chunks []colChunk, scr *sealScratch) {
	if h.eng == nil {
		return
	}
	for _, c := range chunks {
		h.eng.putColBatch(c.cb)
		h.eng.putHvs(c.hvs)
	}
	h.eng.putSealScratch(scr)
}

// ProbeKey resolves one probe key to its build rows: the partition's
// flat store plus a row range (count 0 on a miss). Lock-free; the table
// must be sealed.
func (h *ColHashTable) ProbeKey(key int32) (*storage.ColBatch, int32, int32) {
	hv := hashKey(key)
	p := &h.parts[hv>>h.partShift]
	if hv == 0 {
		return p.store, p.zeroStart, p.zeroCount
	}
	slots := p.slots
	if len(slots) == 0 {
		return nil, 0, 0
	}
	mask := len(slots) - 1
	for i := int(hv) & mask; ; i = (i + 1) & mask {
		s := slots[i]
		if uint32(s>>slotHashShift) == hv {
			cnt := s & slotCountMask
			if cnt != heavyMark {
				return p.store, int32(s >> slotCountBits & maxPartTuples), int32(cnt)
			}
			g := &p.heavy[s>>slotCountBits&maxPartTuples]
			return p.store, g.start, g.count
		}
		if s == 0 {
			return nil, 0, 0
		}
	}
}

// release returns the sealed stores to the engine pool and recycles the
// table itself (its per-partition chunk slices keep their capacity for
// the next build). Only the scheduler calls it, after the consuming
// query fully completed; nothing references the table afterwards.
func (h *ColHashTable) release() {
	if h.eng == nil {
		return
	}
	for i := range h.parts {
		if h.parts[i].store != nil {
			h.eng.putColBatch(h.parts[i].store)
		}
		h.parts[i] = colPart{}
	}
	for p := range h.chunks {
		clear(h.chunks[p])
		h.chunks[p] = h.chunks[p][:0]
	}
	h.eng.chtPool.Put(h)
}
