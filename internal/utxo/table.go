package utxo

import (
	"encoding/binary"
	"math"

	"icbtc/internal/btc"
)

// outpointTable is the set's outpoint → entry store: an open-addressed index
// of 8-byte words over a chunked arena of entries. Neither level holds a
// pointer, so the collector never scans them, and a lookup writes nothing,
// so readers may share the table under a read lock.
//
//   - An index word is tag<<32 | ref+1, zero when the slot is empty. The tag
//     is the high half of the outpoint's seeded hash; its low bits are the
//     home slot, so a word alone says where it belongs: a doubling and a
//     backward-shift delete move words without reading an entry, and a probe
//     reads an entry only on a tag match. Probing is linear at no more than
//     half load, which keeps a probe run inside a cache line or two.
//   - ref indexes the arena, which grows a chunk at a time and never moves an
//     entry; the address buckets name entries by ref too. A taken slot is
//     held, not freed: its outpoint and value stay as they were until the
//     set recycles the held slots, once nothing can still read them (see
//     Set.flush). Freed slots are chained through their heights and reused
//     last-freed first.
//   - The arena has two columns: the entries, 48 bytes each, and their
//     heights, 4 bytes each (a set holds heights below 2^32; the snapshot
//     and every API still carry an int64). A page walk reads the entries
//     alone (its group holds the height), and a walk over a restored
//     bucket's entries is bound by the bytes it streams. The height slot of
//     a taken slot holds its chain link, a ref+1.
//
// One level of fat slots (the entry stored in the index) would probe as fast,
// but a doubling — which happens inside one block's fold — would allocate,
// clear and refill 64 bytes a slot where this one moves 8, and the empty half
// of the table would cost 64 bytes a slot too: between two doublings the
// table weighs 68 to 84 bytes an entry (16 to 32 of index, 48 of entry, 4
// of height), fat slots at the same load 128 to 256. Each entry is stored
// once, here; its bucket holds a 4-byte ref.
type outpointTable struct {
	seed    uint64
	index   []uint64
	chunks  arena
	heights []*[chunkSize]uint32
	// used counts arena slots ever handed out; free heads the chain of freed
	// ones, as ref+1; held chains the slots taken since the set last handed
	// them on.
	used uint32
	free uint32
	held slotChain
	n    int
}

// tableEntry is one stored output but its height, which the arena keeps in a
// column of its own (heightAt). script is the id of its interned script (see
// Set.scripts).
type tableEntry struct {
	op     btc.OutPoint
	script uint32
	value  int64
}

// arena is the entry column's chunks. A chunk never moves once appended, so
// a copy of the list resolves every ref handed out before the copy was made
// while the table goes on appending chunks: the trailing index half reads
// the arena through such a copy (indexWork.arena).
type arena []*[chunkSize]tableEntry

func (a arena) at(ref uint32) *tableEntry {
	return &a[ref>>chunkBits][ref&(chunkSize-1)]
}

// slotChain is a list of taken arena slots linked through their heights,
// head and tail as ref+1, zero when empty.
type slotChain struct{ head, tail uint32 }

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits

	minIndexSlots = 8

	// freeSlot in an arena slot's script field marks the slot as taken:
	// held or free.
	freeSlot = math.MaxUint32

	// maxHeight is the highest height the arena's 4-byte column holds; the
	// decoders, the fold and every other writer refuse a height above it or
	// below 0.
	maxHeight = math.MaxUint32
)

// heightInRange reports whether the height column can hold h.
func heightInRange(h int64) bool { return h >= 0 && h <= maxHeight }

// indexSlotsFor returns the index size that holds n entries at no more than
// half load.
func indexSlotsFor(n int) int {
	slots := minIndexSlots
	for slots < 2*n {
		slots *= 2
	}
	return slots
}

// newOutpointTable returns an empty table that takes n entries without
// growing its index. The seed keeps slot placement out of the hands of
// whoever chooses the outpoints.
func newOutpointTable(seed uint64, n int) outpointTable {
	chunks := (n + chunkSize - 1) / chunkSize
	return outpointTable{
		seed:    seed,
		index:   make([]uint64, indexSlotsFor(n)),
		chunks:  make(arena, 0, chunks),
		heights: make([]*[chunkSize]uint32, 0, chunks),
	}
}

// arenaWindow is a run of arena slots whose first is ref base: their
// entries and their heights.
type arenaWindow struct {
	entries []tableEntry
	heights []uint32
	base    uint32
}

// cut returns the window's slots [lo, hi).
func (w arenaWindow) cut(lo, hi int) arenaWindow {
	return arenaWindow{w.entries[lo:hi], w.heights[lo:hi], w.base + uint32(lo)}
}

// newFilledTable returns a table whose first n arena slots are handed out
// but not indexed, and those slots as one window: a decoder writes each
// entry and its height into the window and then indexes the slot (place).
// Each column's chunks are cut from one allocation.
func newFilledTable(seed uint64, n int) (outpointTable, arenaWindow) {
	t := newOutpointTable(seed, n)
	entries := make([]tableEntry, cap(t.chunks)*chunkSize)
	heights := make([]uint32, len(entries))
	for lo := 0; lo < len(entries); lo += chunkSize {
		t.chunks = append(t.chunks, (*[chunkSize]tableEntry)(entries[lo:]))
		t.heights = append(t.heights, (*[chunkSize]uint32)(heights[lo:]))
	}
	t.used = uint32(n)
	return t, arenaWindow{entries: entries[:n], heights: heights[:n]}
}

// outpointTag hashes an outpoint to the high half of an index word — the
// set's table and every delta's created-output index share the word format
// and this function. A txid is already a uniform hash, so its leading bytes
// and the vout are all that is mixed; the seed goes in ahead of the (public,
// bijective) finalizer, so which outpoints share a slot cannot be worked out
// without it.
func outpointTag(seed uint64, op *btc.OutPoint) uint32 {
	x := (binary.LittleEndian.Uint64(op.TxID[:8]) ^ seed) + uint64(op.Vout)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return uint32(x >> 32)
}

func (t *outpointTable) tag(op *btc.OutPoint) uint32 { return outpointTag(t.seed, op) }

func (t *outpointTable) at(ref uint32) *tableEntry { return t.chunks.at(ref) }

// heightAt is the height column's slot of ref.
func (t *outpointTable) heightAt(ref uint32) *uint32 {
	return &t.heights[ref>>chunkBits][ref&(chunkSize-1)]
}

// find probes for op: the slot it occupies and its entry, or the empty slot
// that ends its probe run and nil.
func (t *outpointTable) find(op *btc.OutPoint, tag uint32) (uint32, *tableEntry) {
	mask := uint32(len(t.index) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		w := t.index[i]
		if w == 0 {
			return i, nil
		}
		if uint32(w>>32) == tag {
			if e := t.at(uint32(w) - 1); e.op == *op {
				return i, e
			}
		}
	}
}

// get returns op's ref and entry, nil when the table does not hold it.
func (t *outpointTable) get(op *btc.OutPoint) (uint32, *tableEntry) {
	i, e := t.find(op, t.tag(op))
	return uint32(t.index[i]) - 1, e
}

// put returns the ref of op's entry and whether this call created it. A
// created entry has its outpoint set and the rest for the caller to fill.
func (t *outpointTable) put(op *btc.OutPoint) (uint32, bool) {
	tag := t.tag(op)
	i, e := t.find(op, tag)
	if e != nil {
		return uint32(t.index[i]) - 1, false
	}
	ref := t.alloc()
	t.at(ref).op = *op
	t.link(i, tag, ref)
	return ref, true
}

// place indexes the filled arena slot ref, reporting false when the table
// already holds its outpoint.
func (t *outpointTable) place(ref uint32) bool {
	op := &t.at(ref).op
	tag := t.tag(op)
	i, e := t.find(op, tag)
	if e == nil {
		t.link(i, tag, ref)
	}
	return e == nil
}

// link writes ref's word into the empty index slot i that ended its probe
// run, then doubles the index if that took it past half load.
func (t *outpointTable) link(i, tag, ref uint32) {
	t.index[i] = uint64(tag)<<32 | uint64(ref+1)
	t.n++
	if 2*t.n > len(t.index) {
		t.grow()
	}
}

// take removes op and returns its ref, the entry it had and its height. The
// slot joins the held chain with its outpoint and value untouched: nothing
// reuses it before the set recycles the chain.
func (t *outpointTable) take(op *btc.OutPoint) (uint32, tableEntry, int64, bool) {
	i, e := t.find(op, t.tag(op))
	if e == nil {
		return 0, tableEntry{}, 0, false
	}
	ref := uint32(t.index[i]) - 1
	taken, h := *e, t.heightAt(ref)
	height := int64(*h)
	e.script, *h = freeSlot, t.held.head
	if t.held.head == 0 {
		t.held.tail = ref + 1
	}
	t.held.head = ref + 1
	t.n--

	// Backward shift: every word further along the run moves into the hole
	// unless its home lies cyclically after the hole, up to and including
	// where it sits.
	mask := uint32(len(t.index) - 1)
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		if home := uint32(t.index[j]>>32) & mask; (j-home)&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = 0
	return ref, taken, height, true
}

// recycle puts a chain of held slots in front of the free chain.
func (t *outpointTable) recycle(c slotChain) {
	if c.head != 0 {
		*t.heightAt(c.tail - 1) = t.free
		t.free = c.head
	}
}

// alloc hands out an arena slot: the last one freed, else the next unused,
// in a new chunk when the last is full.
func (t *outpointTable) alloc() uint32 {
	if t.free != 0 {
		ref := t.free - 1
		t.free = *t.heightAt(ref)
		return ref
	}
	ref := t.used
	if ref == math.MaxUint32-1 {
		panic("utxo: outpoint table full")
	}
	if int(ref>>chunkBits) == len(t.chunks) {
		t.chunks = append(t.chunks, new([chunkSize]tableEntry))
		t.heights = append(t.heights, new([chunkSize]uint32))
	}
	t.used++
	return ref
}

// grow doubles the index. A word's home comes from its own tag, so the
// arena is not read.
func (t *outpointTable) grow() {
	index := make([]uint64, 2*len(t.index))
	mask := uint32(len(index) - 1)
	for _, w := range t.index {
		if w == 0 {
			continue
		}
		i := uint32(w>>32) & mask
		for index[i] != 0 {
			i = (i + 1) & mask
		}
		index[i] = w
	}
	t.index = index
}

// each visits every entry and its height in arena order until visit returns
// false.
func (t *outpointTable) each(visit func(*tableEntry, int64) bool) {
	for ref := uint32(0); ref < t.used; ref++ {
		if e := t.at(ref); e.script != freeSlot && !visit(e, int64(*t.heightAt(ref))) {
			return
		}
	}
}
