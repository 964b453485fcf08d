package utxo

import (
	"encoding/binary"

	"icbtc/internal/btc"
)

// AddressOverlay is the net effect of a chain of unstable block deltas on one
// address: what a merged read lays over the address's stable bucket. It is
// built per query — sized, applied delta by delta in chain order, sealed —
// and is flat like the deltas it folds:
//
//   - col holds every outpoint the chain created or spent for the address,
//     each once, in the place of its first appearance. The stable stream
//     drops every one of them: a spent output is gone, and a created one
//     overrides a stable entry of the same outpoint, as the replay's map
//     overwrite does.
//   - Survival is BlockDelta's rule, across blocks instead of inside one: a
//     spend kills the creation before it, a later re-creation revives it in
//     place. alive keeps a bit per place until Seal moves the survivors to
//     the front of col, in canonical order.
//   - index is a createdIndex over col, the deltas' own word format and hash:
//     one hash of eight of an outpoint's bytes and, nearly always, one word
//     load; outpoints are compared only on a tag match. It alone says
//     "suppressed".
//   - filter stands ahead of index on the read side: a bitset with one bit
//     set per outpoint in col, chosen by the leading bytes of its txid
//     (already a uniform hash, so nothing is mixed). A page streams hundreds
//     of stable entries past an overlay of a handful, and nearly every one
//     is turned away by a load from the entry it is about to copy and a bit
//     test, with no hash. The filter cannot lie: bits are only ever set, and
//     every outpoint that enters col sets its own, so a clear bit means
//     "never in col" and a set bit only means "ask index" — Seal, which moves
//     places and never outpoints, leaves it be. With eight bits or more to
//     a sized entry, at most about one stranger in eight gets through; a
//     saturated filter, or one whose txids were ground onto a single prefix,
//     lets everything through and costs what the index alone costs, plus the
//     bit test.
//
// Sizing from the deltas' entry counts bounds the column, the index and the
// filter, so nothing grows: an overlay is two allocations whatever it holds,
// and none when the chain never touched the address. The zero value is that
// empty overlay.
type AddressOverlay struct {
	col   []UTXO
	index createdIndex
	// alive and filter share index's allocation: a bitset over col's places,
	// and one over txid prefixes (a power of two of bits).
	alive  []uint64
	filter []uint64
	// live counts the survivors, col[:live] once sealed.
	live int
}

// The filter is 256 bits at least and a power of two giving every sized entry
// eight or more, so a deep chain or a busy address thins it no further.
const (
	minFilterWords     = 4
	filterBitsPerEntry = 8
)

// NewAddressOverlay returns an overlay that takes deltas holding entries
// created and spent entries for the address between them (the sum of their
// EntriesFor).
func NewAddressOverlay(entries int) AddressOverlay {
	if entries <= 0 {
		return AddressOverlay{}
	}
	slots := indexSlotsFor(entries)
	fwords := minFilterWords
	for fwords*64 < filterBitsPerEntry*entries {
		fwords *= 2
	}
	words := make([]uint64, slots+fwords+(entries+63)/64)
	return AddressOverlay{
		col:    make([]UTXO, 0, entries),
		index:  words[:slots:slots],
		filter: words[slots : slots+fwords : slots+fwords],
		alive:  words[slots+fwords:],
	}
}

// filterBit returns the filter word and the bit in it that op's txid selects.
func (ov *AddressOverlay) filterBit(op *btc.OutPoint) (word uint32, bit uint64) {
	h := binary.LittleEndian.Uint32(op.TxID[:4]) & uint32(len(ov.filter)*64-1)
	return h >> 6, 1 << (h & 63)
}

// Apply replays one delta's effect on the address over what earlier deltas
// left: its spends, then its creations, as the naive replay would meet them
// (a delta's creations are already net of the block's own spends).
func (ov *AddressOverlay) Apply(d *BlockDelta, addressKey string) {
	g := d.group(addressKey)
	if g == nil {
		return
	}
	if len(ov.col)+int(g.cHi-g.cLo+g.sHi-g.sLo) > cap(ov.col) {
		panic("utxo: address overlay applied past the entries it was sized for")
	}
	for i := g.sLo; i < g.sHi; i++ {
		ov.spend(&d.spent[i].OutPoint)
	}
	for i := g.cLo; i < g.cHi; i++ {
		ov.create(&d.created[i])
	}
}

func (ov *AddressOverlay) spend(op *btc.OutPoint) {
	tag := outpointTag(deltaSeed, op)
	slot, pos := ov.index.find(ov.col, op, tag)
	if pos >= 0 {
		ov.alive[pos>>6] &^= 1 << (pos & 63)
		return
	}
	ov.index.put(slot, tag, len(ov.col))
	ov.col = append(ov.col, UTXO{OutPoint: *op})
	w, bit := ov.filterBit(op)
	ov.filter[w] |= bit
}

func (ov *AddressOverlay) create(u *UTXO) {
	tag := outpointTag(deltaSeed, &u.OutPoint)
	slot, pos := ov.index.find(ov.col, &u.OutPoint, tag)
	if pos < 0 {
		pos = len(ov.col)
		ov.index.put(slot, tag, pos)
		ov.col = append(ov.col, *u)
		w, bit := ov.filterBit(&u.OutPoint)
		ov.filter[w] |= bit
	} else {
		ov.col[pos] = *u
	}
	ov.alive[pos>>6] |= 1 << (pos & 63)
}

// Seal ends the replay: the surviving creations move to the front of the
// column in canonical order and the index is rebuilt over the places they
// and the rest now have. Created and the merged reads want a sealed overlay.
func (ov *AddressOverlay) Seal() {
	live := 0
	for i := range ov.col {
		if ov.alive[i>>6]>>(i&63)&1 != 0 {
			ov.col[live], ov.col[i] = ov.col[i], ov.col[live]
			live++
		}
	}
	ov.live = live
	if live == 0 {
		return // nothing moved
	}
	SortUTXOs(ov.col[:live])
	clear(ov.index)
	for pos := range ov.col {
		ov.index.add(ov.col, pos)
	}
}

// Created returns the creations that survived the chain, in canonical order.
// The slice is the overlay's own; callers must not mutate it.
func (ov *AddressOverlay) Created() []UTXO { return ov.col[:ov.live:ov.live] }

// suppresses reports whether the chain created or spent op. A nil or empty
// overlay suppresses nothing.
func (ov *AddressOverlay) suppresses(op *btc.OutPoint) bool {
	if ov == nil || len(ov.col) == 0 {
		return false
	}
	if w, bit := ov.filterBit(op); ov.filter[w]&bit == 0 {
		return false
	}
	_, pos := ov.index.find(ov.col, op, outpointTag(deltaSeed, op))
	return pos >= 0
}

// MergedBalance returns the value and the number of UTXOs in an address's
// merged view — what MergedPage would stream, summed without streaming it:
// the bucket's running totals, less every stable output the overlay
// suppresses, plus the overlay's surviving creations. Only outpoints actually
// in the set count against it (the replay's map delete of an absent key is a
// no-op), and one that is there belongs to this address: spends are
// attributed by script and a transaction id commits to its scripts.
func (s *Set) MergedBalance(addressKey string, ov *AddressOverlay) (total int64, count int) {
	s.settle()
	if b := s.byAddress[addressKey]; b != nil {
		total, count = b.balance, b.count
	}
	if ov == nil {
		return total, count
	}
	for i := range ov.col {
		if e := s.table.get(&ov.col[i].OutPoint); e != nil {
			total -= e.value
			count--
		}
	}
	for i := range ov.col[:ov.live] {
		total += ov.col[i].Value
		count++
	}
	return total, count
}
