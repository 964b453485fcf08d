package utxo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"icbtc/internal/btc"
)

// Ordered address index. Each address bucket is a height-ascending slice of
// per-height groups; a group holds the bucket's UTXOs created at one height
// in canonical txid/vout order, and a group that empties is dropped. The
// height lives once in the group and the script is the 4-byte id of the
// interned copy (Set.scripts), so an entry is 48 bytes and holds no pointer:
// a group's entries are memory the collector never scans. Entries are stored
// inline, not as references into the outpoint table's arena, so a page walk
// reads a group front to back without a second lookup.
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
//
// A running count and balance make AddressUTXOCount and the stable part of
// get_balance O(1).

// bucketEntry is one UTXO inside a height group; script is the id of its
// interned script (see Set.scripts).
type bucketEntry struct {
	op     btc.OutPoint
	script uint32
	value  int64
}

// heightGroup holds one bucket's entries of one height, sorted by
// cmpOutPoint. A stored group is never empty.
type heightGroup struct {
	height  int64
	entries []bucketEntry
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

func sortEntries(list []bucketEntry) {
	if len(list) > 1 {
		slices.SortFunc(list, func(a, b bucketEntry) int { return cmpOutPoint(&a.op, &b.op) })
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

// searchEntries returns where op sits (or would be inserted) in a group. The
// loop is spelled out because a comparison closure would move every
// caller's outpoint to the heap.
func searchEntries(entries []bucketEntry, op *btc.OutPoint) (int, bool) {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpOutPoint(&entries[mid].op, op) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(entries) && entries[lo].op == *op
}

// insertGroup adds entries of one height, sorted by cmpOutPoint: a block's
// outputs for this bucket, or a single restored one. Normally the height is
// new and list becomes the group as it is (the bucket takes ownership); only
// a height the bucket already holds needs a merge.
func (b *bucket) insertGroup(height int64, list []bucketEntry) {
	gi, ok := b.findGroup(height)
	if !ok {
		b.groups = slices.Insert(b.groups, gi, heightGroup{height: height, entries: list})
	} else {
		g := &b.groups[gi]
		g.entries = append(g.entries, list...)
		sortEntries(g.entries)
	}
	b.count += len(list)
	for i := range list {
		b.balance += list[i].value
	}
}

// remove deletes the entry with the given outpoint from the group at height,
// reporting whether it was there.
func (b *bucket) remove(op *btc.OutPoint, height int64) bool {
	gi, ok := b.findGroup(height)
	if !ok {
		return false
	}
	g := &b.groups[gi]
	i, ok := searchEntries(g.entries, op)
	if !ok {
		return false
	}
	b.count--
	b.balance -= g.entries[i].value
	if len(g.entries) == 1 {
		b.groups = slices.Delete(b.groups, gi, gi+1)
	} else {
		g.entries = slices.Delete(g.entries, i, i+1)
	}
	return true
}

// AddressIter streams one address's stable UTXOs in canonical
// (height-descending) order: groups from the highest down, each group
// forward. The zero value is an exhausted iterator.
type AddressIter struct {
	// set resolves an entry's script id.
	set *Set
	// cur is what is left of the group being emitted, at height; below are
	// the groups still to come, the highest last.
	cur    []bucketEntry
	height int64
	below  []heightGroup
}

// settle moves the stream onto its next entry whose outpoint ov does not
// suppress (nil suppresses nothing), stepping down a group whenever one is
// used up, and reports whether there is such an entry. After true, cur[0] is
// that entry.
func (it *AddressIter) settle(ov *AddressOverlay) bool {
	for {
		for len(it.cur) == 0 {
			n := len(it.below)
			if n == 0 {
				return false
			}
			it.cur, it.height = it.below[n-1].entries, it.below[n-1].height
			it.below = it.below[:n-1]
		}
		if !ov.suppresses(&it.cur[0].op) {
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
		n += len(it.below[i].entries)
	}
	return n
}

// headInto writes into c the entry a successful settle left the stream on —
// in place: a page is written where it lies, not built entry by entry and
// copied. A coin names no script, so the script table is not read.
func (it *AddressIter) headInto(c *Coin) {
	e := &it.cur[0]
	c.OutPoint, c.Value, c.Height = e.op, e.value, it.height
}

// headBefore reports whether that entry strictly precedes u in canonical
// order.
func (it *AddressIter) headBefore(u *UTXO) bool {
	if it.height != u.Height {
		return it.height > u.Height
	}
	return cmpOutPoint(&it.cur[0].op, &u.OutPoint) < 0
}

// Next returns the next UTXO in canonical order, script included.
func (it *AddressIter) Next() (u UTXO, ok bool) {
	if !it.settle(nil) {
		return UTXO{}, false
	}
	e := &it.cur[0]
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
	entries := b.groups[gi].entries
	q, found := searchEntries(entries, &c.op)
	if found {
		q++
	}
	return AddressIter{set: s, cur: entries[q:], height: c.height, below: b.groups[:gi]}
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
	for n < len(page) {
		if !stable.settle(suppress) {
			took := min(len(page)-n, len(created)-ci)
			for k := range took {
				page[n+k] = CoinOf(created[ci+k])
			}
			n, ci, unstable = n+took, ci+took, unstable+took
			break
		}
		if ci < len(created) && !stable.headBefore(&created[ci]) {
			page[n] = CoinOf(created[ci])
			unstable++
			ci++
		} else {
			stable.headInto(&page[n])
			stable.cur = stable.cur[1:]
		}
		n++
	}
	page = page[:n]
	if ci >= len(created) && !stable.settle(suppress) {
		return page, unstable, nil, nil // both streams exhausted
	}
	last := &page[n-1]
	return page, unstable, encodeCursor(pageCursor{height: last.Height, op: last.OutPoint}), nil
}
