package utxo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"icbtc/internal/btc"
)

// Ordered address index. Each address bucket is a height-ascending slice of
// per-height groups; a group holds the refs of the bucket's UTXOs created at
// one height, in canonical txid/vout order, and a group that empties is
// dropped. A UTXO is stored once, as its entry in the outpoint table's arena
// (table.go); a group names it by its 4-byte arena ref, so the groups too are
// memory the collector never scans. A page walk reads each entry through its
// ref — one dependent load and the entry's 48-byte column, not its height —
// against 44 bytes a UTXO that a second, inline copy in the bucket would
// cost every replica.
//
//   - A fold appends: heights ascend block over block, so a block's outputs
//     for an address become one new group at the end of its bucket, handed
//     over as an already sorted slice.
//   - Removing one UTXO shifts only the tail of its own height group (or, when
//     it was the group's last entry, the group headers after it) — never the
//     rest of the bucket.
//   - The canonical get_utxos order (height *descending*, txid/vout
//     ascending) is streamed by walking the groups back to front and each
//     group forward; a cursor is located by one search over the group heights
//     and one inside the group.
//   - A hydrated bucket (DecodeSet, DecodeSetParallel) lies in page order in
//     the arena: the highest group's entries at the lowest refs, each lower
//     group right after, so that walk streams forward through memory. A
//     fold's outputs take whatever slots the table hands out.
//   - A group reads the arena from the trailing index half too (a search by
//     outpoint, a same-height merge, a balance), while the next block's
//     table half takes and puts entries. One rule makes that safe, the held
//     slot: a taken slot keeps its outpoint and value until every index half
//     that may still read it has run (Set.flush). The index half resolves
//     refs through its own copy of the chunk list, which the table half
//     appends to.
//
// A running count and balance make AddressUTXOCount and the stable part of
// get_balance O(1).

// heightGroup holds the refs of one bucket's entries of one height, sorted by
// cmpOutPoint. A stored group is never empty.
type heightGroup struct {
	height int64
	refs   []uint32
}

// bucket is the per-address ordered container.
type bucket struct {
	// groups is sorted by height ascending.
	groups  []heightGroup
	count   int
	balance int64
}

// cmpOutPoint is the canonical tie-break inside one height: txid, then vout.
func cmpOutPoint(a, b *btc.OutPoint) int {
	if a.TxID != b.TxID {
		if a.TxID.Less(b.TxID) {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Vout, b.Vout)
}

// sortRefs sorts refs by the outpoints of their entries.
func (a arena) sortRefs(refs []uint32) {
	if len(refs) > 1 {
		slices.SortFunc(refs, func(x, y uint32) int { return cmpOutPoint(&a.at(x).op, &a.at(y).op) })
	}
}

// findGroup returns the index of the group at height, or — when there is
// none — the index it would be inserted at, which is also the number of
// groups below height. Writes and tip reads aim past or at the last group,
// so that is checked before the binary search.
func (b *bucket) findGroup(height int64) (int, bool) {
	lo, hi := 0, len(b.groups)
	if hi == 0 || b.groups[hi-1].height < height {
		return hi, false
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.groups[mid].height < height {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, b.groups[lo].height == height
}

// searchRefs returns where op sits (or would be inserted) in a group. The
// loop is spelled out because a comparison closure would move every
// caller's outpoint to the heap.
func (a arena) searchRefs(refs []uint32, op *btc.OutPoint) (int, bool) {
	lo, hi := 0, len(refs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpOutPoint(&a.at(refs[mid]).op, op) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(refs) && a.at(refs[lo]).op == *op
}

// insertGroup adds the refs of entries of one height, sorted by cmpOutPoint:
// a block's outputs for this bucket, or a single added one. Normally the
// height is new and refs becomes the group as it is (the bucket takes
// ownership); only a height the bucket already holds needs a merge. The
// entries are read through a.
func (b *bucket) insertGroup(a arena, height int64, refs []uint32) {
	gi, ok := b.findGroup(height)
	if !ok {
		b.groups = slices.Insert(b.groups, gi, heightGroup{height: height, refs: refs})
	} else {
		g := &b.groups[gi]
		g.refs = append(g.refs, refs...)
		a.sortRefs(g.refs)
	}
	b.count += len(refs)
	for _, ref := range refs {
		b.balance += a.at(ref).value
	}
}

// remove deletes ref from the group at height, reporting whether it was
// there. It finds the ref by its entry's outpoint, read through a.
func (b *bucket) remove(a arena, ref uint32, height int64) bool {
	gi, ok := b.findGroup(height)
	if !ok {
		return false
	}
	g := &b.groups[gi]
	e := a.at(ref)
	i, ok := a.searchRefs(g.refs, &e.op)
	if !ok || g.refs[i] != ref {
		return false
	}
	b.count--
	b.balance -= e.value
	if len(g.refs) == 1 {
		b.groups = slices.Delete(b.groups, gi, gi+1)
	} else {
		g.refs = slices.Delete(g.refs, i, i+1)
	}
	return true
}

// AddressIter streams one address's stable UTXOs in canonical
// (height-descending) order: groups from the highest down, each group
// forward. The zero value is an exhausted iterator.
type AddressIter struct {
	// set resolves a ref and an entry's script id.
	set *Set
	// cur is what is left of the group being emitted, at height; below are
	// the groups still to come, the highest last.
	cur    []uint32
	height int64
	below  []heightGroup
}

// head is the entry a successful settle left the stream on.
func (it *AddressIter) head() *tableEntry { return it.set.table.at(it.cur[0]) }

// settle moves the stream onto its next entry whose outpoint ov does not
// suppress (nil suppresses nothing), stepping down a group whenever one is
// used up, and reports whether there is such an entry. After true, cur[0] is
// that entry's ref.
func (it *AddressIter) settle(ov *AddressOverlay) bool {
	for {
		for len(it.cur) == 0 {
			n := len(it.below)
			if n == 0 {
				return false
			}
			it.cur, it.height = it.below[n-1].refs, it.below[n-1].height
			it.below = it.below[:n-1]
		}
		if !ov.suppresses(&it.head().op) {
			return true
		}
		it.cur = it.cur[1:]
	}
}

// remaining counts the entries the stream still holds, suppressed or not,
// giving up once there are at least limit of them.
func (it *AddressIter) remaining(limit int) int {
	n := len(it.cur)
	for i := len(it.below) - 1; i >= 0 && n < limit; i-- {
		n += len(it.below[i].refs)
	}
	return n
}

// headInto writes into c the entry a successful settle left the stream on —
// in place: a page is written where it lies, not built entry by entry and
// copied. A coin names no script, so the script table is not read.
func (it *AddressIter) headInto(c *Coin) {
	e := it.head()
	c.OutPoint, c.Value, c.Height = e.op, e.value, it.height
}

// headBefore reports whether that entry strictly precedes u in canonical
// order.
func (it *AddressIter) headBefore(u *UTXO) bool {
	if it.height != u.Height {
		return it.height > u.Height
	}
	return cmpOutPoint(&it.head().op, &u.OutPoint) < 0
}

// fill copies the stream into page[n:] until the page is full or the stream
// ends, dropping what ov suppresses (nil suppresses nothing), and returns how
// much of the page is then written. It goes a group at a time: every entry
// costs a load through its ref, a copy and, when the overlay holds anything,
// a filter test; only an entry past a set bit asks the overlay's index.
func (it *AddressIter) fill(page []Coin, n int, ov *AddressOverlay) int {
	if len(it.cur) == 0 && len(it.below) == 0 {
		return n // the zero iterator has no set
	}
	filtered := ov != nil && len(ov.col) > 0
	chunks := it.set.table.chunks
	for n < len(page) {
		if len(it.cur) == 0 {
			k := len(it.below)
			if k == 0 {
				break
			}
			it.cur, it.height = it.below[k-1].refs, it.below[k-1].height
			it.below = it.below[:k-1]
		}
		run, height := it.cur[:min(len(it.cur), len(page)-n)], it.height
		it.cur = it.cur[len(run):]
		for _, ref := range run {
			e := &chunks[ref>>chunkBits][ref&(chunkSize-1)]
			if filtered {
				if w, bit := ov.filterBit(&e.op); ov.filter[w]&bit != 0 && ov.indexed(&e.op) {
					continue
				}
			}
			c := &page[n]
			c.OutPoint, c.Value, c.Height = e.op, e.value, height
			n++
		}
	}
	return n
}

// Next returns the next UTXO in canonical order, script included.
func (it *AddressIter) Next() (u UTXO, ok bool) {
	if !it.settle(nil) {
		return UTXO{}, false
	}
	e := it.head()
	u = UTXO{OutPoint: e.op, Value: e.value, PkScript: it.set.scripts[e.script].bytes, Height: it.height}
	it.cur = it.cur[1:]
	return u, true
}

// AddressIter returns an iterator over an address's UTXOs from the top of
// the canonical order.
func (s *Set) AddressIter(addressKey string) AddressIter {
	s.settle()
	return s.iterOver(s.byAddress[addressKey])
}

// iterOver is AddressIter over the address's bucket, nil when it has none.
func (s *Set) iterOver(b *bucket) AddressIter {
	if b == nil {
		return AddressIter{}
	}
	return AddressIter{set: s, below: b.groups}
}

// iterAfter returns an iterator resuming strictly after the cursor in
// canonical order: the rest of the cursor's height group first, then every
// lower group.
func (s *Set) iterAfter(b *bucket, c pageCursor) AddressIter {
	if b == nil {
		return AddressIter{}
	}
	gi, ok := b.findGroup(c.height)
	if !ok {
		// The cursor's height group is gone: what remains is the gi groups
		// below it.
		return AddressIter{set: s, below: b.groups[:gi]}
	}
	refs := b.groups[gi].refs
	q, found := s.table.chunks.searchRefs(refs, &c.op)
	if found {
		q++
	}
	return AddressIter{set: s, cur: refs[q:], height: c.height, below: b.groups[:gi]}
}

// AddressUTXOCount returns how many stable UTXOs an address holds.
func (s *Set) AddressUTXOCount(addressKey string) int {
	s.settle()
	b := s.byAddress[addressKey]
	if b == nil {
		return 0
	}
	return b.count
}

// MergedPage streams one get_utxos page for an address directly off the
// ordered index: the union of the stable bucket (minus suppressed
// outpoints) and a small pre-sorted list of unstable creations, in
// canonical order, resuming strictly after token. It returns the page, as
// coins, how many of its entries came from the unstable list, and the
// next-page token (nil when the merged stream is exhausted).
//
// The page is byte-for-byte what Page(sortedMergedView, token, limit) would
// return, at O(log n + page) instead of O(n log n): the cursor is located
// by binary search and only the page is written.
//
// created and suppress are the two faces of one sealed AddressOverlay: its
// Created list, sorted canonically, and the overlay itself, which drops from
// the stable stream the outpoints the unstable chain spent and every outpoint
// in created (a creation overrides a same-outpoint stable entry, as the
// replay's map overwrite does). Nil for both pages the stable bucket alone.
func (s *Set) MergedPage(addressKey string, created []UTXO, suppress *AddressOverlay, token PageToken, limit int) (page []Coin, unstable int, next PageToken, err error) {
	if limit <= 0 {
		return nil, 0, nil, fmt.Errorf("utxo: page limit must be positive, got %d", limit)
	}
	s.settle()
	b := s.byAddress[addressKey]
	var stable AddressIter
	ci := 0
	if len(token) != 0 {
		cur, err := decodeCursor(token)
		if err != nil {
			return nil, 0, nil, err
		}
		stable = s.iterAfter(b, cur)
		ci = sort.Search(len(created), func(i int) bool { return cursorBefore(cur, created[i]) })
	} else {
		stable = s.iterOver(b)
	}

	// What the two streams have left bounds the page, so it is allocated at
	// the most it can hold and filled where it lies. A first page has the
	// bucket's running count; a resumed one counts from its cursor, not from
	// the top of the bucket: the slack would live as long as whoever keeps
	// the page.
	room := len(created) - ci
	if len(token) != 0 {
		room += stable.remaining(limit - room)
	} else if b != nil {
		room += b.count
	}
	if room > limit {
		room = limit
	}
	page = make([]Coin, room)
	n := 0
	// The head: while unstable creations are left, the two streams merge
	// entry by entry.
	for n < len(page) && ci < len(created) {
		if !stable.settle(suppress) {
			took := min(len(page)-n, len(created)-ci)
			for k := range took {
				page[n+k] = CoinOf(created[ci+k])
			}
			n, ci, unstable = n+took, ci+took, unstable+took
			break
		}
		if !stable.headBefore(&created[ci]) {
			page[n] = CoinOf(created[ci])
			unstable++
			ci++
		} else {
			stable.headInto(&page[n])
			stable.cur = stable.cur[1:]
		}
		n++
	}
	// The tail: the stable stream alone, copied group by group.
	if ci >= len(created) {
		n = stable.fill(page, n, suppress)
	}
	page = page[:n]
	if ci >= len(created) && !stable.settle(suppress) {
		return page, unstable, nil, nil // both streams exhausted
	}
	last := &page[n-1]
	return page, unstable, encodeCursor(pageCursor{height: last.Height, op: last.OutPoint}), nil
}
