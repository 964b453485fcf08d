package utxo

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"

	"icbtc/internal/btc"
	"icbtc/internal/statecodec"
)

// Snapshot codec for the UTXO set and the per-block deltas (the stable-
// memory serialization of §III-C's state). Two properties matter beyond
// plain round-tripping:
//
//   - Determinism: map-backed containers are written in canonical order —
//     the interned-script table sorted by script bytes, address buckets
//     sorted by key, bucket entries in their maintained storage order — so
//     two replicas holding identical state produce identical snapshots, and
//     encode→decode→encode is byte-stable.
//   - O(bytes) restore: every entry is written with its interned-script
//     reference and every script with its memoized address key, so decoding
//     performs no address decoding, no ScriptID hashing, and no sorting.
//     Entries are written straight into the outpoint table's arena, each
//     bucket in page order in a window of its own; the bucket's slab names
//     those slots in stored (already canonical) order, and its group
//     records are cut from that order; running balances are accumulated in
//     the same pass. A stored height is an int64, and one outside [0, 2^32)
//     is refused: the arena keeps a height in 4 bytes.
//
// Snapshots carry a checksum (see statecodec), so a decoder failure means a
// framing bug or version skew, not silent corruption. Ordering invariants
// are still verified during decode — the check is a linear comparison pass,
// not a sort — because a restored set with a misordered bucket would serve
// wrong pages long after the restore, and a delta whose keys are out of order
// would re-encode to other bytes than were accepted.

// Decode guards: upper bounds on element counts and lengths so a hostile
// length prefix cannot drive allocation (fast-sync restores a snapshot
// received from a peer).
const (
	maxSnapshotEntries   = 1 << 28
	maxSnapshotScriptLen = 1 << 16
	maxSnapshotKeyLen    = 1 << 12

	// Minimum encoded sizes per repeated element, used to bound declared
	// counts against the bytes actually present (Decoder.CountFor): a set
	// entry is txid+vout+value+height plus a one-byte script index; a delta
	// creation drops height but adds a script length prefix; a delta spend
	// is outpoint+value; scripts and buckets are at least two length
	// prefixes.
	setEntryBytes      = btc.HashSize + 4 + 8 + 8 + 1
	deltaCreatedBytes  = btc.HashSize + 4 + 8 + 1
	deltaSpentBytes    = btc.HashSize + 4 + 8
	lengthPrefixedMin2 = 2
)

// EncodeTo appends the set's deterministic encoding to e.
func (s *Set) EncodeTo(e *statecodec.Encoder) {
	s.settle()
	e.U8(uint8(s.network))
	// Total entry count up front so decode can pre-size the outpoint table
	// and never rehash it.
	e.Uvarint(uint64(s.Len()))

	// Interned-script table, sorted by script bytes. Each script carries its
	// memoized address key so restore never re-derives a ScriptID. Entries
	// name a script by its position in this table, not by its id.
	ids := make([]uint32, 0, len(s.interned))
	for _, id := range s.interned {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b uint32) int {
		return bytes.Compare(s.scripts[a].bytes, s.scripts[b].bytes)
	})
	index := make([]uint64, len(s.scripts))
	e.Uvarint(uint64(len(ids)))
	for i, id := range ids {
		index[id] = uint64(i)
		e.Bytes(s.scripts[id].bytes)
		e.String(s.scripts[id].key)
	}

	// Address buckets, sorted by key; entries in maintained storage order
	// (height ascending with the canonical tie-break), which restore can
	// append verbatim.
	keys := make([]string, 0, len(s.byAddress))
	for k := range s.byAddress {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		b := s.byAddress[k]
		e.String(k)
		e.Uvarint(uint64(b.count))
		for gi := range b.groups {
			g := &b.groups[gi]
			for _, ref := range b.run(g) {
				u := s.table.at(ref)
				e.Raw(u.op.TxID[:])
				e.U32(u.op.Vout)
				e.I64(u.value)
				e.I64(g.height)
				e.Uvarint(index[u.script])
			}
		}
	}
}

// DecodeSet reads a set encoded by EncodeTo. Restore cost is linear in the
// snapshot bytes: scripts are interned straight from the stored table (keys
// included, a script's id being its stored position), entries are written
// into the arena and bucket group records cut from the stored order, and the
// outpoint index, reference counts and running balances are rebuilt bucket
// by bucket as each is read.
func DecodeSet(d *statecodec.Decoder) (*Set, error) {
	network := btc.Network(d.U8())
	total := d.CountFor(maxSnapshotEntries, setEntryBytes)

	nScripts := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	scripts, interned, err := decodeScriptTable(d, nScripts)
	if err != nil {
		return nil, err
	}
	// Pre-size the table and every map from the stored counts — incremental
	// growth would re-hash the whole table log(n) times and dominate restore.
	table, arena := newFilledTable(rand.Uint64(), total)
	s := &Set{
		network:   network,
		table:     table,
		byAddress: make(map[string]*bucket, nScripts),
		scripts:   scripts,
		interned:  interned,
	}

	nBuckets := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	bd := bucketDecoder{scripts: scripts}
	decoded := 0
	for i := 0; i < nBuckets; i++ {
		key := d.String(maxSnapshotKeyLen)
		n := d.CountFor(maxSnapshotEntries, setEntryBytes)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := s.byAddress[key]; dup {
			return nil, fmt.Errorf("utxo: snapshot bucket %q duplicated", key)
		}
		if decoded+n > total {
			return nil, fmt.Errorf("utxo: snapshot bucket %q overflows declared entry count %d", key, total)
		}
		b, err := bd.decode(d, key, arena.cut(decoded, decoded+n))
		if err != nil {
			return nil, err
		}
		if err := s.indexBucket(key, b, uint32(decoded)); err != nil {
			return nil, err
		}
		decoded += n
	}
	if decoded != total {
		return nil, fmt.Errorf("utxo: snapshot declared %d entries, decoded %d", total, decoded)
	}
	if err := checkScriptsReferenced(s.scripts); err != nil {
		return nil, err
	}
	return s, d.Err()
}

// decodeScriptTable reads the interned-script table: each script with its
// memoized address key, in stored order (the order entries index it by),
// which must be EncodeTo's ascending script order — a table in any other
// order would re-encode to other bytes than were accepted.
func decodeScriptTable(d *statecodec.Decoder, n int) ([]internedScript, map[string]uint32, error) {
	list := make([]internedScript, 0, n)
	interned := make(map[string]uint32, n)
	for i := 0; i < n; i++ {
		raw := d.Bytes(maxSnapshotScriptLen)
		key := d.String(maxSnapshotKeyLen)
		if d.Err() != nil {
			return nil, nil, d.Err()
		}
		if i > 0 && bytes.Compare(list[i-1].bytes, raw) >= 0 {
			return nil, nil, fmt.Errorf("utxo: snapshot script %d duplicated or out of order", i)
		}
		interned[string(raw)] = uint32(i)
		list = append(list, internedScript{bytes: bytes.Clone(raw), key: key})
	}
	return list, interned, nil
}

func checkScriptsReferenced(scripts []internedScript) error {
	for i := range scripts {
		if scripts[i].refs == 0 {
			return fmt.Errorf("utxo: snapshot script %d referenced by no entry", i)
		}
	}
	return nil
}

// bucketDecoder reads bucket entries against the decoded script table. It is
// not safe for concurrent use: groups is scratch reused from bucket to
// bucket.
type bucketDecoder struct {
	scripts []internedScript
	groups  []heightGroup
}

// decode reads the bucket's stored entries into w, its window of the table's
// arena, cutting a height group at every height change and verifying the
// storage order and the height range on the way. The outpoint index is not
// touched (see Set.indexBucket), so shard workers can decode buckets
// concurrently.
//
// The window is laid out in page order: the highest group at the lowest
// ref, each group forward, so a page walk (groups from the highest down)
// streams forward through memory. Stored entry j lands at its mirrored place
// n-1-j, which leaves each group backwards at its final place; a group is
// turned round as soon as it ends, while it is still in cache. The bucket's
// slab, an exact allocation of its own, is in storage order, as everywhere
// else: slot j names the window slot stored entry j landed in, so a group's
// run names its window slots in order.
func (bd *bucketDecoder) decode(d *statecodec.Decoder, key string, w arenaWindow) (*bucket, error) {
	dst := w.entries
	n := len(dst)
	b := &bucket{count: n, refs: make([]uint32, n)}
	bd.groups = bd.groups[:0]
	start, height := 0, int64(0)
	for j := range dst {
		// One bounds-checked read covers the entry's fixed-width fields
		// (txid, vout, value, height); only the script index varints.
		fields := d.Raw(btc.HashSize + 4 + 8 + 8)
		si := d.Uvarint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		e := &dst[n-1-j]
		copy(e.op.TxID[:], fields[:btc.HashSize])
		e.op.Vout = binary.LittleEndian.Uint32(fields[btc.HashSize:])
		e.value = int64(binary.LittleEndian.Uint64(fields[btc.HashSize+4:]))
		h := int64(binary.LittleEndian.Uint64(fields[btc.HashSize+12:]))
		if !heightInRange(h) {
			return nil, fmt.Errorf("utxo: snapshot bucket %q entry %d at height %d, outside [0, 2^32)", key, j, h)
		}
		if si >= uint64(len(bd.scripts)) {
			return nil, fmt.Errorf("utxo: snapshot script index %d out of range", si)
		}
		// A spend finds its bucket by its script's key, so an entry filed
		// under another key could never be removed from it.
		if bd.scripts[si].key != key {
			return nil, fmt.Errorf("utxo: snapshot bucket %q holds an entry whose script is keyed %q", key, bd.scripts[si].key)
		}
		e.script = uint32(si)
		if j > 0 {
			// The stored entry before this one sits just above it.
			if h < height || (h == height && cmpOutPoint(&dst[n-j].op, &e.op) >= 0) {
				return nil, fmt.Errorf("utxo: snapshot bucket %q not in storage order at entry %d", key, j)
			}
			if h > height {
				bd.endGroup(b, w, n-j, n-start, height)
				start = j
			}
		}
		height = h
		b.balance += e.value
		w.heights[n-1-j] = uint32(h)
	}
	if n > 0 {
		bd.endGroup(b, w, 0, n-start, height)
	}
	b.groups = slices.Clone(bd.groups)
	return b, nil
}

// endGroup turns the finished group w.entries[lo:hi], written backwards,
// forward (its heights are all equal) and records it. Its run is as many
// slab slots, as far from the slab's end as the window slots are from its
// start, and names them in order.
func (bd *bucketDecoder) endGroup(b *bucket, w arenaWindow, lo, hi int, height int64) {
	slices.Reverse(w.entries[lo:hi])
	n := len(b.refs)
	run := b.refs[n-hi : n-lo]
	for i := range run {
		run[i] = w.base + uint32(lo+i)
	}
	bd.groups = append(bd.groups, heightGroup{height: height, lo: uint32(n - hi), n: uint32(hi - lo)})
}

// indexBucket installs a decoded bucket whose window starts at ref base: its
// entries join the outpoint index, with the reference counts they imply. It
// walks the window front to back, the highest group first, as decode laid it
// out. An empty stored bucket is read and dropped, as the set never holds
// one.
func (s *Set) indexBucket(key string, b *bucket, base uint32) error {
	for ref := base; ref < base+uint32(b.count); ref++ {
		if !s.table.place(ref) {
			return fmt.Errorf("utxo: snapshot outpoint %s duplicated", s.table.at(ref).op)
		}
		s.scripts[s.table.at(ref).script].refs++
	}
	if b.count > 0 {
		s.byAddress[key] = b
	}
	return nil
}

// --- Sharded parallel decode (fast-sync hydration) ---

// bucketSpan records the byte window a scan pass found for one bucket, so
// shard workers can decode buckets independently.
type bucketSpan struct {
	key        string
	n          int
	start, end int // entry bytes window
	arenaOff   int // the bucket's first slot in the table's arena
}

// shardResult is one shard's decoded buckets (entries written into disjoint
// windows of the table's arena, groups cut, balances accumulated, order
// verified), ready for the sequential merge.
type shardResult struct {
	buckets []*bucket
	err     error
}

// DecodeSetParallel reads a set encoded by EncodeTo using up to `workers`
// goroutines: a cheap scan pass records the script-table and bucket byte
// windows, the script table and bucket shards decode concurrently — each
// shard writing its buckets' entries straight into their windows of the
// table's arena — and a sequential merge, running as shards complete, in
// deterministic shard order, only places index words and counts script
// references.
// The format is unchanged (same bytes DecodeSet reads) and the resulting
// set is identical to DecodeSet's; with workers <= 1 it IS DecodeSet.
//
// Both decoders read buckets with bucketDecoder.decode and install them with
// Set.indexBucket, so every structural check (duplicate
// scripts/buckets/outpoints, storage-order violations, script index bounds,
// entry-count accounting, unreferenced scripts) is the same code either way
// and a hostile snapshot is rejected either way.
func DecodeSetParallel(d *statecodec.Decoder, workers int) (*Set, error) {
	if workers <= 1 {
		return DecodeSet(d)
	}
	network := btc.Network(d.U8())
	total := d.CountFor(maxSnapshotEntries, setEntryBytes)
	nScripts := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	if d.Err() != nil {
		return nil, d.Err()
	}

	// Scan the script table: skip length-prefixed fields, record the window.
	scriptsStart := d.Offset()
	for i := 0; i < nScripts; i++ {
		d.Skip(d.Count(maxSnapshotScriptLen))
		d.Skip(d.Count(maxSnapshotKeyLen))
	}
	if d.Err() != nil {
		return nil, d.Err()
	}

	// Decode the script table concurrently with the bucket scan below.
	type scriptTable struct {
		list     []internedScript
		interned map[string]uint32
		err      error
	}
	scriptCh := make(chan scriptTable, 1)
	sw, err := d.Window(scriptsStart, d.Offset())
	if err != nil {
		return nil, err
	}
	go func() {
		var t scriptTable
		t.list, t.interned, t.err = decodeScriptTable(sw, nScripts)
		scriptCh <- t
	}()

	// Scan the bucket section: keys, counts, and entry windows. Entries are
	// a fixed 52 bytes plus a script-index varint, so the scan is a skip
	// per entry, no decoding.
	nBuckets := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	spans := make([]bucketSpan, 0, nBuckets)
	seen := make(map[string]struct{}, nBuckets)
	decoded := 0
	for i := 0; i < nBuckets; i++ {
		key := d.String(maxSnapshotKeyLen)
		n := d.CountFor(maxSnapshotEntries, setEntryBytes)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if _, dup := seen[key]; dup {
			return nil, fmt.Errorf("utxo: snapshot bucket %q duplicated", key)
		}
		if n > 0 {
			// The serial decoder only indexes non-empty buckets, so only
			// those can collide.
			seen[key] = struct{}{}
		}
		if decoded+n > total {
			return nil, fmt.Errorf("utxo: snapshot bucket %q overflows declared entry count %d", key, total)
		}
		start := d.Offset()
		for j := 0; j < n; j++ {
			d.Skip(btc.HashSize + 4 + 8 + 8)
			d.Uvarint()
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
		spans = append(spans, bucketSpan{key: key, n: n, start: start, end: d.Offset(), arenaOff: decoded})
		decoded += n
	}
	if decoded != total {
		return nil, fmt.Errorf("utxo: snapshot declared %d entries, decoded %d", total, decoded)
	}

	// Partition buckets into contiguous shards balanced by entry count.
	var shards [][]bucketSpan
	target := (total + workers - 1) / workers
	if target < 1 {
		target = 1
	}
	for lo := 0; lo < len(spans); {
		hi, count := lo, 0
		for hi < len(spans) && (count == 0 || count+spans[hi].n <= target) {
			count += spans[hi].n
			hi++
		}
		shards = append(shards, spans[lo:hi])
		lo = hi
	}

	st := <-scriptCh
	if st.err != nil {
		return nil, st.err
	}

	// Shards fill disjoint windows of the arena, as in the serial decoder.
	table, arena := newFilledTable(rand.Uint64(), total)
	s := &Set{
		network:   network,
		table:     table,
		byAddress: make(map[string]*bucket, nScripts),
		scripts:   st.list,
		interned:  st.interned,
	}

	results := make([]chan shardResult, len(shards))
	for si := range shards {
		results[si] = make(chan shardResult, 1)
		go func(part []bucketSpan, out chan<- shardResult) {
			res := shardResult{buckets: make([]*bucket, 0, len(part))}
			bd := bucketDecoder{scripts: st.list}
			for _, sp := range part {
				w, err := d.Window(sp.start, sp.end)
				if err != nil {
					res.err = err
					break
				}
				b, err := bd.decode(w, sp.key, arena.cut(sp.arenaOff, sp.arenaOff+sp.n))
				if err != nil {
					res.err = err
					break
				}
				res.buckets = append(res.buckets, b)
			}
			out <- res
		}(shards[si], results[si])
	}

	// Merge shards in order as they complete: the outpoint index and the
	// reference counts are sequential state, so this loop is the only
	// writer. A failed shard still drains the others before returning.
	var firstErr error
	for si := range shards {
		res := <-results[si]
		if firstErr == nil {
			firstErr = res.err
		}
		if firstErr != nil {
			continue
		}
		for bi, sp := range shards[si] {
			if firstErr = s.indexBucket(sp.key, res.buckets[bi], uint32(sp.arenaOff)); firstErr != nil {
				break
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := checkScriptsReferenced(s.scripts); err != nil {
		return nil, err
	}
	return s, d.Err()
}

// EncodeBlockDelta appends a block delta's deterministic encoding: created
// outputs per address (keys ascending, lists in block order) followed by
// spent outpoints per address. Created outputs all sit at the delta's own
// height, so only the outpoint, value, and script are stored per entry; the
// groups, the key ids and the outpoint index are rebuilt on decode. A delta
// keeps its groups in first-appearance order, so the canonical key order is
// made here; DecodeBlockDelta checks it.
func EncodeBlockDelta(e *statecodec.Encoder, bd *BlockDelta) {
	e.I64(bd.height)

	order := make([]uint32, len(bd.groups))
	nCreated, nSpent := 0, 0
	for i := range bd.groups {
		order[i] = uint32(i)
		g := &bd.groups[i]
		if g.cLo < g.cHi {
			nCreated++
		}
		if g.sLo < g.sHi {
			nSpent++
		}
	}
	slices.SortFunc(order, func(a, b uint32) int {
		return strings.Compare(bd.groups[a].key, bd.groups[b].key)
	})

	e.Uvarint(uint64(nCreated))
	for _, id := range order {
		g := &bd.groups[id]
		if g.cLo == g.cHi {
			continue
		}
		list := bd.created[g.cLo:g.cHi]
		e.String(g.key)
		e.Uvarint(uint64(len(list)))
		for i := range list {
			u := &list[i]
			e.Raw(u.OutPoint.TxID[:])
			e.U32(u.OutPoint.Vout)
			e.I64(u.Value)
			e.Bytes(u.PkScript)
		}
	}

	e.Uvarint(uint64(nSpent))
	for _, id := range order {
		g := &bd.groups[id]
		if g.sLo == g.sHi {
			continue
		}
		list := bd.spent[g.sLo:g.sHi]
		e.String(g.key)
		e.Uvarint(uint64(len(list)))
		for i := range list {
			sp := &list[i]
			e.Raw(sp.OutPoint.TxID[:])
			e.U32(sp.OutPoint.Vout)
			e.I64(sp.Value)
		}
	}
}

// EncodedBlockDeltaSize returns the number of bytes EncodeBlockDelta appends
// for bd, so an encoder can be sized before the delta is written.
func EncodedBlockDeltaSize(bd *BlockDelta) int {
	const outPointBytes = btc.HashSize + 4 + 8 // txid, vout, value
	n := 8                                     // height
	nCreated, nSpent := 0, 0
	for i := range bd.groups {
		g := &bd.groups[i]
		key := uvarintLen(len(g.key)) + len(g.key)
		if g.cLo < g.cHi {
			nCreated++
			n += key + uvarintLen(int(g.cHi-g.cLo))
			for _, u := range bd.created[g.cLo:g.cHi] {
				n += outPointBytes + uvarintLen(len(u.PkScript)) + len(u.PkScript)
			}
		}
		if g.sLo < g.sHi {
			nSpent++
			n += key + uvarintLen(int(g.sHi-g.sLo)) + int(g.sHi-g.sLo)*outPointBytes
		}
	}
	return n + uvarintLen(nCreated) + uvarintLen(nSpent)
}

// uvarintLen is the length of v's Uvarint encoding.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// checkDeltaList rejects the list headers no encoder writes: a section's keys
// ascend strictly — an equal key would merge two lists, a descending one
// would re-encode elsewhere — and a key that is listed has entries.
func checkDeltaList(section string, i int, prev, key []byte, n int) error {
	if i > 0 {
		switch c := bytes.Compare(key, prev); {
		case c == 0:
			return fmt.Errorf("utxo: delta snapshot %s key %q duplicated", section, key)
		case c < 0:
			return fmt.Errorf("utxo: delta snapshot %s key %q out of order", section, key)
		}
	}
	if n == 0 {
		return fmt.Errorf("utxo: delta snapshot %s key %q has no entries", section, key)
	}
	return nil
}

// listsHint is how many lists of a section to make room for: the declared
// count, or as many lists of one entry as the bytes left could hold if that is
// fewer. Only capacity hangs on it — the columns are filled by append — so a
// hostile count buys no allocation and a low one costs a reallocation.
func listsHint(d *statecodec.Decoder, declared, entryBytes int) int {
	return min(declared, d.Remaining()/(lengthPrefixedMin2+entryBytes))
}

// scriptArena copies a delta's scripts into chunks of its own, so a decoded
// delta neither pins the bytes it was decoded from nor allocates per script. A
// chunk that cannot take the next script is left as it is — the scripts cut
// from it keep it alive — and a new one started, twice the size up to
// scriptChunkMax: a one-transaction delta holds a kilobyte, a full block's a
// handful of chunks, and no script is ever moved. An empty script gets a place
// like any other: a decoded script is never nil.
type scriptArena []byte

const (
	scriptChunkMin = 1 << 10
	scriptChunkMax = 1 << 16
)

func (a *scriptArena) add(raw []byte) []byte {
	if *a == nil || len(raw) > cap(*a)-len(*a) {
		*a = make([]byte, 0, max(len(raw), min(max(2*cap(*a), scriptChunkMin), scriptChunkMax)))
	}
	lo := len(*a)
	*a = append(*a, raw...)
	return (*a)[lo:len(*a):len(*a)]
}

// DecodeBlockDelta reads a delta encoded by EncodeBlockDelta straight into
// its columns, in one pass and by appending: a declared count gives a capacity
// at most, scripts are copied into a chunked arena, and no address key is
// re-derived (keys were stored alongside the lists). The stored order does the
// checking a map did: keys must ascend strictly within a section, and the
// outpoint index — built over the created column once the section is in, at
// the size the column turned out to have — reports an outpoint it already
// holds as a duplicate. Both sections being sorted, a spent key finds its
// created group by merge, and the key map is filled once, at its final size.
func DecodeBlockDelta(d *statecodec.Decoder) (*BlockDelta, error) {
	bd := &BlockDelta{height: d.I64()}

	nCreated := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	hint := listsHint(d, nCreated, deltaCreatedBytes)
	bd.groups = make([]addrGroup, 0, hint)
	bd.created = make([]UTXO, 0, hint)
	var scripts scriptArena
	var prev []byte
	for i := 0; i < nCreated; i++ {
		key := d.Bytes(maxSnapshotKeyLen)
		n := d.CountFor(maxSnapshotEntries, deltaCreatedBytes)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if err := checkDeltaList("created", i, prev, key, n); err != nil {
			return nil, err
		}
		prev = key
		lo := uint32(len(bd.created))
		for j := 0; j < n; j++ {
			u := UTXO{Height: bd.height}
			copy(u.OutPoint.TxID[:], d.Raw(btc.HashSize))
			u.OutPoint.Vout = d.U32()
			u.Value = d.I64()
			raw := d.Bytes(maxSnapshotScriptLen)
			if d.Err() != nil {
				return nil, d.Err()
			}
			u.PkScript = scripts.add(raw)
			bd.created = append(bd.created, u)
		}
		bd.groups = append(bd.groups, addrGroup{key: string(key), cLo: lo, cHi: uint32(len(bd.created))})
	}
	bd.index = newCreatedIndex(len(bd.created))
	for pos := range bd.created {
		if !bd.index.add(bd.created, pos) {
			return nil, fmt.Errorf("utxo: delta snapshot created outpoint %s duplicated", bd.created[pos].OutPoint)
		}
	}

	nSpent := d.CountFor(maxSnapshotEntries, lengthPrefixedMin2)
	bd.spent = make([]SpentOutPoint, 0, listsHint(d, nSpent, deltaSpentBytes))
	// Groups [c, nCreated) are the created keys this section has yet to reach.
	c := 0
	for i := 0; i < nSpent; i++ {
		key := d.Bytes(maxSnapshotKeyLen)
		n := d.CountFor(maxSnapshotEntries, deltaSpentBytes)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if err := checkDeltaList("spent", i, prev, key, n); err != nil {
			return nil, err
		}
		prev = key
		for c < nCreated && bd.groups[c].key < string(key) {
			c++
		}
		id := c
		if c == nCreated || bd.groups[c].key != string(key) {
			id = len(bd.groups)
			bd.groups = append(bd.groups, addrGroup{key: string(key)})
		}
		lo := uint32(len(bd.spent))
		for j := 0; j < n; j++ {
			var sp SpentOutPoint
			copy(sp.OutPoint.TxID[:], d.Raw(btc.HashSize))
			sp.OutPoint.Vout = d.U32()
			sp.Value = d.I64()
			bd.spent = append(bd.spent, sp)
		}
		bd.groups[id].sLo, bd.groups[id].sHi = lo, uint32(len(bd.spent))
	}

	bd.ids = make(map[string]uint32, len(bd.groups))
	for i := range bd.groups {
		bd.ids[bd.groups[i].key] = uint32(i)
	}
	return bd, d.Err()
}
