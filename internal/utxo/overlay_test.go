package utxo

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"icbtc/internal/btc"
)

// mapOverlay is the overlay AddressOverlay replaced, kept as its reference:
// the surviving creations in canonical order and a Go map of the outpoints to
// drop from the stable stream.
type mapOverlay struct {
	created  []UTXO
	suppress map[btc.OutPoint]bool
}

// mapOverlayFor folds deltas, in order, into one address's overlay the way
// the canister's unstableEffectFor did: two maps a query.
func mapOverlayFor(deltas []*BlockDelta, addressKey string) mapOverlay {
	createdSet := make(map[btc.OutPoint]UTXO)
	suppress := make(map[btc.OutPoint]bool)
	for _, d := range deltas {
		for _, sp := range d.SpentFor(addressKey) {
			delete(createdSet, sp.OutPoint)
			suppress[sp.OutPoint] = true
		}
		for _, u := range d.CreatedFor(addressKey) {
			createdSet[u.OutPoint] = u
		}
	}
	created := make([]UTXO, 0, len(createdSet))
	for _, u := range createdSet {
		created = append(created, u)
		suppress[u.OutPoint] = true
	}
	SortUTXOs(created)
	return mapOverlay{created: created, suppress: suppress}
}

// settle is AddressIter.settle as it was: one map probe per streamed entry.
func (o mapOverlay) settle(it *AddressIter) bool {
	for it.settle(nil) {
		if !o.suppress[it.head().op] {
			return true
		}
		it.cur = it.cur[1:]
	}
	return false
}

// mergedPage is MergedPage as it was over the maps: entries built by value
// and appended.
func (o mapOverlay) mergedPage(s *Set, addressKey string, token PageToken, limit int) (page []UTXO, unstable int, next PageToken, err error) {
	stable := s.AddressIter(addressKey)
	ci := 0
	if len(token) != 0 {
		cur, err := decodeCursor(token)
		if err != nil {
			return nil, 0, nil, err
		}
		stable = s.iterAfter(s.byAddress[addressKey], cur)
		ci = sort.Search(len(o.created), func(i int) bool { return cursorBefore(cur, o.created[i]) })
	}
	page = []UTXO{}
	sok := o.settle(&stable)
	for len(page) < limit {
		switch {
		case sok && (ci >= len(o.created) || stable.headBefore(&o.created[ci])):
			u, _ := stable.Next()
			page = append(page, u)
			sok = o.settle(&stable)
		case ci < len(o.created):
			page = append(page, o.created[ci])
			unstable++
			ci++
		default:
			return page, unstable, nil, nil
		}
	}
	if !sok && ci >= len(o.created) {
		return page, unstable, nil, nil
	}
	last := page[len(page)-1]
	return page, unstable, encodeCursor(pageCursor{height: last.Height, op: last.OutPoint}), nil
}

// balance is the canister's balance walk as it was: the bucket's totals, less
// every suppressed outpoint the set holds, plus the creations.
func (o mapOverlay) balance(s *Set, addressKey string) (total int64, count int) {
	total, count = s.Balance(addressKey), s.AddressUTXOCount(addressKey)
	for op := range o.suppress {
		if u, ok := s.Get(op); ok {
			total -= u.Value
			count--
		}
	}
	for i := range o.created {
		total += o.created[i].Value
		count++
	}
	return total, count
}

// overlayFor builds the flat overlay the way the canister does: sized from
// the deltas' entry counts, applied in order, sealed.
func overlayFor(deltas []*BlockDelta, addressKey string) AddressOverlay {
	entries := 0
	for _, d := range deltas {
		entries += d.EntriesFor(addressKey)
	}
	ov := NewAddressOverlay(entries)
	for _, d := range deltas {
		ov.Apply(d, addressKey)
	}
	ov.Seal()
	return ov
}

// checkOverlayAgainstMaps holds the flat overlay to the map-based one over
// one set: the same creations, the same pages, unstable counts and tokens at
// every limit walked to exhaustion, and the same balance and count.
func checkOverlayAgainstMaps(t *testing.T, what string, set *Set, addressKey string, ov *AddressOverlay, want mapOverlay) {
	t.Helper()
	if got := ov.Created(); !sameUTXOs(got, want.created) {
		t.Fatalf("%s: created %v, map-based %v", what, got, want.created)
	}
	for _, limit := range []int{1, 3, 1000} {
		var token PageToken
		for pages := 0; ; pages++ {
			if pages > 200 {
				t.Fatalf("%s limit %d: pagination did not terminate", what, limit)
			}
			wantPage, wantUnstable, wantNext, err := want.mergedPage(set, addressKey, token, limit)
			if err != nil {
				t.Fatal(err)
			}
			page, unstable, next, err := set.MergedPage(addressKey, ov.Created(), ov, token, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCoins(page, wantPage) || unstable != wantUnstable {
				t.Fatalf("%s limit %d page %d: %v (%d unstable), map-based %v (%d unstable)",
					what, limit, pages, page, unstable, wantPage, wantUnstable)
			}
			if page == nil {
				t.Fatalf("%s limit %d page %d: nil page", what, limit, pages)
			}
			if !bytes.Equal(next, wantNext) {
				t.Fatalf("%s limit %d page %d: token %x, map-based %x", what, limit, pages, next, wantNext)
			}
			if next == nil {
				break
			}
			token = next
		}
	}
	total, count := set.MergedBalance(addressKey, ov)
	if wantTotal, wantCount := want.balance(set, addressKey); total != wantTotal || count != wantCount {
		t.Fatalf("%s: balance %d over %d UTXOs, map-based %d over %d", what, total, count, wantTotal, wantCount)
	}
}

func sameUTXOs(a, b []UTXO) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].OutPoint != b[i].OutPoint || a[i].Value != b[i].Value || a[i].Height != b[i].Height || !bytes.Equal(a[i].PkScript, b[i].PkScript) {
			return false
		}
	}
	return true
}

// sameCoins reports whether a coin page is the reference's UTXOs as coins.
func sameCoins(page []Coin, want []UTXO) bool {
	if len(page) != len(want) {
		return false
	}
	for i := range page {
		if page[i] != CoinOf(want[i]) {
			return false
		}
	}
	return true
}

// overlayOutPoint maps a program byte onto 32 outpoints: eight transactions
// of four outputs. In one tag family the txids differ only past the bytes the
// index hashes, so outputs of different transactions with one vout tie on
// the full tag.
func overlayOutPoint(b byte, family bool) btc.OutPoint {
	var op btc.OutPoint
	op.TxID[0], op.TxID[20] = b>>2&7, 1
	if family {
		op.TxID[0], op.TxID[20] = 0, b>>2&7
	}
	op.Vout = uint32(b & 3)
	return op
}

// testDelta assembles a delta of two keys' runs directly; building one from a
// block is FuzzBlockDeltaDiff's business.
func testDelta(height int64, key string, created []UTXO, spent []SpentOutPoint, otherKey string, otherCreated []UTXO, otherSpent []SpentOutPoint) *BlockDelta {
	d := &BlockDelta{height: height, ids: map[string]uint32{otherKey: 0, key: 1}}
	d.created = append(append(d.created, otherCreated...), created...)
	d.spent = append(append(d.spent, otherSpent...), spent...)
	oc, os := uint32(len(otherCreated)), uint32(len(otherSpent))
	d.groups = []addrGroup{
		{key: otherKey, cHi: oc, sHi: os},
		{key: key, cLo: oc, cHi: uint32(len(d.created)), sLo: os, sHi: uint32(len(d.spent))},
	}
	return d
}

// Step codes of an overlay program; every step is a code and an outpoint
// byte.
const (
	overlayOpSpend = iota
	overlayOpCreate
	overlayOpOther // the outpoint is created and spent for another address
	overlayOpEndDelta
	overlayOps
)

// overlayProgram runs a generated chain of at most eight deltas over one
// address through the flat overlay and the map-based one. The program's first
// byte counts the stable outputs that follow, one byte each; the rest are
// steps. Outpoints come from a universe of 32, so a program soon spends a
// stable output, an earlier creation and nothing at all, re-creates after a
// spend, and creates an outpoint the stable bucket holds; delta heights start
// among the stable ones, so the two streams interleave.
func overlayProgram(t *testing.T, data []byte, family bool) {
	if len(data) == 0 {
		return
	}
	key, script := addrKey(0x31)
	otherKey, otherScript := addrKey(0x32)
	set := New(btc.Regtest)
	stable := int(data[0]) % 24
	data = data[1:]
	for i := 0; i < stable && len(data) > 0; i, data = i+1, data[1:] {
		// A duplicate is refused and the program moves on.
		_ = set.Add(overlayOutPoint(data[0], family), btc.TxOut{Value: int64(100 + i), PkScript: script}, int64(1+data[0]>>5))
	}
	other := btc.OutPoint{TxID: btc.Hash{0xaa}}
	if err := set.Add(other, btc.TxOut{Value: 7, PkScript: otherScript}, 2); err != nil {
		t.Fatal(err)
	}

	var (
		deltas                []*BlockDelta
		created, otherCreated []UTXO
		spent, otherSpent     []SpentOutPoint
		inDelta                     = make(map[btc.OutPoint]bool)
		height                int64 = 4
	)
	endDelta := func() {
		deltas = append(deltas, testDelta(height, key, created, spent, otherKey, otherCreated, otherSpent))
		created, spent, otherCreated, otherSpent = nil, nil, nil, nil
		clear(inDelta)
		height++
	}
	for step := 0; len(data) >= 2 && len(deltas) < 8; step, data = step+1, data[2:] {
		op := overlayOutPoint(data[1], family)
		switch data[0] % overlayOps {
		case overlayOpSpend:
			spent = append(spent, SpentOutPoint{OutPoint: op, Value: int64(step)})
		case overlayOpCreate:
			// A delta's created column holds an outpoint once.
			if !inDelta[op] {
				inDelta[op] = true
				created = append(created, UTXO{OutPoint: op, Value: int64(1000 + step), PkScript: script, Height: height})
			}
		case overlayOpOther:
			otherSpent = append(otherSpent, SpentOutPoint{OutPoint: other, Value: 7})
			if !inDelta[op] {
				inDelta[op] = true
				otherCreated = append(otherCreated, UTXO{OutPoint: op, Value: int64(5000 + step), PkScript: otherScript, Height: height})
			}
		case overlayOpEndDelta:
			endDelta()
		}
	}
	if len(deltas) < 8 {
		endDelta()
	}

	// Every prefix of the chain is a considered chain of its own (the
	// confirmations filter cuts one short).
	for n := 0; n <= len(deltas); n++ {
		ov := overlayFor(deltas[:n], key)
		checkOverlayAgainstMaps(t, fmt.Sprintf("%d deltas", n), set, key, &ov, mapOverlayFor(deltas[:n], key))
	}
	missing := overlayFor(deltas, "no such key")
	if missing.col != nil || missing.index != nil {
		t.Fatal("an overlay for an address no delta names allocated")
	}
	checkOverlayAgainstMaps(t, "untouched address", set, key, &missing, mapOverlay{})
}

func overlaySeeds() [][]byte {
	steps := func(stable []byte, pairs ...byte) []byte {
		return append(append([]byte{byte(len(stable))}, stable...), pairs...)
	}
	return [][]byte{
		// Nothing unstable; nothing at all.
		steps([]byte{0, 1, 2, 40, 41}),
		steps(nil),
		// A stable output spent, an earlier creation spent, nothing spent.
		steps([]byte{0, 1, 2},
			overlayOpSpend, 1, overlayOpCreate, 8, overlayOpEndDelta, 0,
			overlayOpSpend, 8, overlayOpSpend, 30, overlayOpCreate, 9),
		// Created, spent by the next delta, re-created by the third; and the
		// same inside one delta's runs (spends apply first).
		steps([]byte{4, 5},
			overlayOpCreate, 12, overlayOpEndDelta, 0,
			overlayOpSpend, 12, overlayOpEndDelta, 0,
			overlayOpCreate, 12, overlayOpSpend, 12, overlayOpEndDelta, 0,
			overlayOpSpend, 12),
		// A creation whose outpoint the stable bucket holds, then spent, and
		// one spent twice.
		steps([]byte{0, 1, 2, 3, 70},
			overlayOpCreate, 2, overlayOpCreate, 70, overlayOpEndDelta, 0,
			overlayOpSpend, 2, overlayOpSpend, 3, overlayOpSpend, 3),
		// Another address's entries beside this one's, on the same outpoints.
		steps([]byte{0, 1},
			overlayOpOther, 0, overlayOpCreate, 6, overlayOpOther, 6, overlayOpEndDelta, 0,
			overlayOpOther, 1, overlayOpSpend, 0),
		// Eight deltas, each creating four and spending the four before.
		func() []byte {
			p := steps([]byte{0, 33, 66, 99})
			for d := byte(0); d < 8; d++ {
				for i := byte(0); i < 4; i++ {
					p = append(p, overlayOpCreate, d*4+i, overlayOpSpend, d*4+i-4)
				}
				p = append(p, overlayOpEndDelta, 0)
			}
			return p
		}(),
		// For the filter, which the txid's four leading bytes address. In the
		// tag family every txid shares them, so every stable entry collides
		// with whatever the chain touched: transaction 0's outputs spent,
		// transaction 1's created over stable ones, and the six stable
		// transactions beside them must all fall through to the index and
		// stream on.
		steps([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20, 24, 28, 29, 30, 31},
			overlayOpSpend, 0, overlayOpSpend, 1, overlayOpCreate, 4, overlayOpEndDelta, 0,
			overlayOpSpend, 2, overlayOpCreate, 5, overlayOpSpend, 4, overlayOpEndDelta, 0,
			overlayOpCreate, 4, overlayOpSpend, 3),
		// A chain sized past the filter's minimum: eight deltas of a creation
		// and sixteen spends, 136 entries where 32 fill the 256 bits.
		func() []byte {
			p := steps([]byte{0, 5, 10, 15, 20, 25, 30})
			for d := byte(0); d < 8; d++ {
				p = append(p, overlayOpCreate, d*5)
				for i := byte(0); i < 16; i++ {
					p = append(p, overlayOpSpend, d*3+i*2)
				}
				p = append(p, overlayOpEndDelta, 0)
			}
			return p
		}(),
	}
}

// FuzzAddressOverlayDiff is the differential net under the flat overlay: on
// any program of deltas over one address it and the map-based overlay it
// replaced agree on the creations that survive, on every page at every limit,
// and on the balance walk.
func FuzzAddressOverlayDiff(f *testing.F) {
	for _, seed := range overlaySeeds() {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(overlayProgram)
}

// TestAddressOverlaySizedOnce: the column, the index and the filter are what
// the entry count bought, whatever the chain did with them, and applying past
// that count is refused loudly rather than probed into a full index.
func TestAddressOverlaySizedOnce(t *testing.T) {
	key, script := addrKey(0x31)
	var created []UTXO
	var spent []SpentOutPoint
	for i := 0; i < 100; i++ {
		op := btc.OutPoint{TxID: btc.Hash{byte(i)}, Vout: 1}
		created = append(created, UTXO{OutPoint: op, Value: 1, PkScript: script, Height: 9})
		spent = append(spent, SpentOutPoint{OutPoint: btc.OutPoint{TxID: btc.Hash{byte(i)}}})
	}
	d := testDelta(9, key, created, spent, "other", nil, nil)
	ov := NewAddressOverlay(d.EntriesFor(key))
	col, index, filter := &ov.col[:1][0], &ov.index[0], &ov.filter[0]
	ov.Apply(d, key)
	ov.Seal()
	if &ov.col[0] != col || &ov.index[0] != index || len(ov.col) != 200 || len(ov.Created()) != 100 {
		t.Fatalf("overlay of 200 entries: column of %d (moved: %v), index moved: %v, %d created",
			len(ov.col), &ov.col[0] != col, &ov.index[0] != index, len(ov.Created()))
	}
	if bits := len(ov.filter) * 64; &ov.filter[0] != filter || bits != 2048 {
		t.Fatalf("overlay of 200 entries: filter of %d bits (moved: %v), want 2048: the power of two giving each entry eight",
			bits, &ov.filter[0] != filter)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a delta applied past the overlay's size was taken")
		}
	}()
	ov.Apply(d, key)
}

// randomOutPoint draws an outpoint whose txid is uniform, as a real one is.
func randomOutPoint(rng *rand.Rand) btc.OutPoint {
	var op btc.OutPoint
	rng.Read(op.TxID[:])
	op.Vout = uint32(rng.Intn(4))
	return op
}

// TestOverlayFilterNeverHidesAnEntry: the filter ahead of the index may send
// a stranger on to the exact probe but never turns away an outpoint the chain
// touched — spent, created, spent and then re-created, created and then spent
// — at the minimum size and past it; and it is worth having: of 10 000
// outpoints the chain never saw, fewer than one in five reach the index.
func TestOverlayFilterNeverHidesAnEntry(t *testing.T) {
	key, script := addrKey(0x31)
	for _, entries := range []int{1, 8, 64, 1200} {
		rng := rand.New(rand.NewSource(int64(entries)))
		// Three deltas: the first spends and creates, the second spends a
		// quarter of what the first created and re-creates a quarter of what
		// it spent, the third undoes half of that again.
		var deltas []*BlockDelta
		var created []UTXO
		var spent []SpentOutPoint
		for i := 0; i < entries; i++ {
			if op := randomOutPoint(rng); i%2 == 0 {
				created = append(created, UTXO{OutPoint: op, Value: int64(i), PkScript: script, Height: 7})
			} else {
				spent = append(spent, SpentOutPoint{OutPoint: op})
			}
		}
		deltas = append(deltas, testDelta(7, key, created, spent, "other", nil, nil))
		var respent []SpentOutPoint
		var recreated []UTXO
		for i := 0; i < len(created); i += 4 {
			respent = append(respent, SpentOutPoint{OutPoint: created[i].OutPoint})
		}
		for i := 0; i < len(spent); i += 4 {
			recreated = append(recreated, UTXO{OutPoint: spent[i].OutPoint, Value: 9, PkScript: script, Height: 8})
		}
		deltas = append(deltas, testDelta(8, key, recreated, respent, "other", nil, nil))
		var again []UTXO
		for i := 0; i < len(respent); i += 2 {
			again = append(again, UTXO{OutPoint: respent[i].OutPoint, Value: 10, PkScript: script, Height: 9})
		}
		var gone []SpentOutPoint
		for i := 0; i < len(recreated); i += 2 {
			gone = append(gone, SpentOutPoint{OutPoint: recreated[i].OutPoint})
		}
		deltas = append(deltas, testDelta(9, key, again, gone, "other", nil, nil))

		ov := overlayFor(deltas, key)
		if len(ov.col) != entries {
			t.Fatalf("%d entries: column of %d", entries, len(ov.col))
		}
		for i := range ov.col {
			if !ov.suppresses(&ov.col[i].OutPoint) {
				t.Fatalf("%d entries: outpoint %d of the column is not suppressed (live: %v)", entries, i, i < ov.live)
			}
		}
		passed := 0
		for i := 0; i < 10_000; i++ {
			op := randomOutPoint(rng)
			if ov.suppresses(&op) {
				t.Fatalf("%d entries: an outpoint the chain never saw is suppressed", entries)
			}
			if w, bit := ov.filterBit(&op); ov.filter[w]&bit != 0 {
				passed++
			}
		}
		t.Logf("%d entries, %d filter bits: %d of 10000 strangers reach the index", entries, len(ov.filter)*64, passed)
		if passed >= 2000 {
			t.Fatalf("%d entries: %d of 10000 strangers pass a filter of %d bits; want fewer than 2000", entries, passed, len(ov.filter)*64)
		}
	}
}

// TestMergedPageSizedByWhatIsLeft: a page's backing array is bounded by what
// the two streams hold past its cursor, not by the bucket — the last page of
// a long walk used to be limit slots holding a handful of UTXOs, kept alive by
// whoever kept the page — and the pages are the map-based reference's.
func TestMergedPageSizedByWhatIsLeft(t *testing.T) {
	key, script := addrKey(0x31)
	rng := rand.New(rand.NewSource(23))
	set := New(btc.Regtest)
	for i := 0; i < 2500; i++ {
		mustAdd(t, set, randomOutPoint(rng), int64(1000+i), script, int64(1+i/50))
	}
	var all []UTXO
	for it := set.AddressIter(key); ; {
		u, ok := it.Next()
		if !ok {
			break
		}
		all = append(all, u)
	}
	var spent []SpentOutPoint
	for i := 0; i < len(all); i += 7 {
		spent = append(spent, SpentOutPoint{OutPoint: all[i].OutPoint, Value: all[i].Value})
	}
	var created []UTXO
	for i := 0; i < 5; i++ {
		created = append(created, UTXO{OutPoint: randomOutPoint(rng), Value: int64(i), PkScript: script, Height: int64(20 * i)})
	}
	deltas := []*BlockDelta{testDelta(60, key, created, spent, "other", nil, nil)}
	ov, want := overlayFor(deltas, key), mapOverlayFor(deltas, key)

	for _, limit := range []int{1000, 3} {
		var token PageToken
		left := len(all) + len(want.created)
		for pages := 0; ; pages++ {
			wantPage, wantUnstable, wantNext, err := want.mergedPage(set, key, token, limit)
			if err != nil {
				t.Fatal(err)
			}
			page, unstable, next, err := set.MergedPage(key, ov.Created(), &ov, token, limit)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCoins(page, wantPage) || unstable != wantUnstable || !bytes.Equal(next, wantNext) {
				t.Fatalf("limit %d page %d: %d UTXOs (%d unstable, token %x), map-based %d (%d, %x)",
					limit, pages, len(page), unstable, next, len(wantPage), wantUnstable, wantNext)
			}
			if cap(page) > left || cap(page) > limit {
				t.Fatalf("limit %d page %d: backing array of %d for %d UTXOs, with %d left in the streams", limit, pages, cap(page), len(page), left)
			}
			if next == nil {
				break
			}
			cur, err := decodeCursor(next)
			if err != nil {
				t.Fatal(err)
			}
			after := func(list []UTXO) int {
				return len(list) - sort.Search(len(list), func(i int) bool { return cursorBefore(cur, list[i]) })
			}
			left = after(all) + after(want.created)
			token = next
		}
	}
}
