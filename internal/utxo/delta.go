package utxo

import (
	"math"
	"math/rand/v2"

	"icbtc/internal/btc"
)

// Incremental unstable-state overlay (read-path optimization). The naive
// get_utxos/get_balance implementation replays every unstable block for
// every request, so query cost grows linearly with δ (§III-C notes exactly
// this complexity). A BlockDelta is the address-indexed net effect of one
// unstable block, computed once, at the end of the payload that attached the
// block to the header tree; the read path then merges the stable set with the chain of per-block
// deltas for just the queried address instead of rescanning full blocks.

// BlockDelta is the address-indexed delta of one block: the outputs it
// created (net of outputs it created and spent itself) and the pre-existing
// outpoints it spent attributed to their owning addresses. A delta is
// immutable once built — Finish and DecodeBlockDelta are the only writers —
// so replica queries read one concurrently under a read lock.
//
// Memory mirrors the wire form, which is flat: two columns grouped by
// address key, and one group record per touched key saying where its created
// and spent runs lie. Nothing is allocated per key, per list or per output,
// and the created column is indexed in place rather than copied into a
// second container:
//
//   - created holds the surviving outputs, each key's run in block order (the
//     order the naive replay would add them); spent holds the spent
//     pre-existing outpoints the same way. An outpoint may appear in spent
//     more than once (redundant double spends inside one block); merge
//     deletion is idempotent, matching replay.
//   - Survival is the replay's rule. An output takes its place at its first
//     creation in the block; a later input spending it marks the place dead
//     (the pair nets out locally and no view ever sees it); a later
//     re-creation — the transaction repeated inside the block — revives it in
//     the same place. Only places alive when the block ends reach created.
//   - ids maps an address key to its dense id, the position of its group. It
//     is the one Go map left: a query needs key → group, and the alternative —
//     groups sorted by key under a binary search — would sort a few hundred
//     strings per block on the serial consumer (Finish learns the last keys),
//     where a map insert per new key is cheaper and is mostly paid on a
//     pipeline worker. Groups are therefore in first-appearance order and the
//     encoder sorts ids when it writes.
//   - index resolves an outpoint to its position in created, for descendant
//     blocks attributing a spend to its owner. It belongs to the delta, not to
//     the canister: a delta is pruned with its tree node on a reorg or an
//     anchor advance and travels to replicas whole, so nothing has to be
//     maintained beside it, and competing branches — which may create one
//     outpoint twice — stay apart by construction.
//
// CreatedFor and SpentFor return sub-slices of the columns capped with a
// three-index slice, so a caller's append reallocates instead of writing into
// the neighbouring key's run.
type BlockDelta struct {
	height int64

	created []UTXO
	spent   []SpentOutPoint
	groups  []addrGroup
	ids     map[string]uint32
	index   createdIndex
}

// addrGroup locates one address key's runs: created[cLo:cHi], spent[sLo:sHi].
type addrGroup struct {
	key                string
	cLo, cHi, sLo, sHi uint32
}

// createdIndex is a delta's outpoint → position index over its created
// column: outpointTable's index — 8-byte words tag<<32 | pos+1, zero when
// empty, linear probing at no more than half load — without what a delta
// never does: it is built once and then only read, so there is no take, no
// growth and no arena (the column is the arena). A miss costs one word load
// and reads no entry.
//
// Every delta of a process hashes under one seed, deltaSeed, drawn at start:
// an outpoint tagged once probes each unstable ancestor in turn, and which
// outpoints share a slot still cannot be worked out by whoever chooses them
// (TestDeltaIndexCraftedCollisions). Nothing iterates an index, so nothing
// observable depends on the seed.
type createdIndex []uint64

var deltaSeed = rand.Uint64()

// deadRef in a word's low half marks an output the block itself spent: the
// word stays, so the probe runs through it stay whole, and matches nothing.
const deadRef = math.MaxUint32

// newCreatedIndex returns an index that takes n outpoints.
func newCreatedIndex(n int) createdIndex { return make(createdIndex, indexSlotsFor(n)) }

// find probes for op among created: its position and the slot naming it, or
// -1 and the empty slot that ends its probe run.
func (ix createdIndex) find(created []UTXO, op *btc.OutPoint, tag uint32) (uint32, int) {
	mask := uint32(len(ix) - 1)
	for i := tag & mask; ; i = (i + 1) & mask {
		w := ix[i]
		if w == 0 {
			return i, -1
		}
		if uint32(w>>32) == tag && uint32(w) != deadRef {
			if pos := int(uint32(w) - 1); created[pos].OutPoint == *op {
				return i, pos
			}
		}
	}
}

// put names created[pos] in slot, the empty slot find returned for it.
func (ix createdIndex) put(slot, tag uint32, pos int) {
	ix[slot] = uint64(tag)<<32 | uint64(pos+1)
}

// add names created[pos] — how an index is built over a column that is
// already there. It reports false, naming nothing, when the index holds the
// outpoint at another position.
func (ix createdIndex) add(created []UTXO, pos int) bool {
	op := &created[pos].OutPoint
	tag := outpointTag(deltaSeed, op)
	slot, dup := ix.find(created, op, tag)
	if dup >= 0 {
		return false
	}
	ix.put(slot, tag, pos)
	return true
}

// SpentOutPoint is one spent pre-existing outpoint with its value, kept so
// balance deltas can be derived without a second lookup.
type SpentOutPoint struct {
	OutPoint btc.OutPoint
	Value    int64
}

// Height returns the block height the delta was computed at.
func (d *BlockDelta) Height() int64 { return d.height }

func (d *BlockDelta) group(addressKey string) *addrGroup {
	if id, ok := d.ids[addressKey]; ok {
		return &d.groups[id]
	}
	return nil
}

// CreatedFor returns the surviving outputs the block created for an address
// key, in block order. The returned slice is shared; callers must not
// mutate it.
func (d *BlockDelta) CreatedFor(addressKey string) []UTXO {
	if g := d.group(addressKey); g != nil && g.cLo < g.cHi {
		return d.created[g.cLo:g.cHi:g.cHi]
	}
	return nil
}

// SpentFor returns the pre-existing outpoints the block spent that are
// attributed to an address key. The returned slice is shared.
func (d *BlockDelta) SpentFor(addressKey string) []SpentOutPoint {
	if g := d.group(addressKey); g != nil && g.sLo < g.sHi {
		return d.spent[g.sLo:g.sHi:g.sHi]
	}
	return nil
}

// EntriesFor returns how many created + spent entries the delta holds for
// one address key — the per-delta work a merged read performs.
func (d *BlockDelta) EntriesFor(addressKey string) int {
	if g := d.group(addressKey); g != nil {
		return int(g.cHi - g.cLo + g.sHi - g.sLo)
	}
	return 0
}

// OutPointTag is an outpoint hashed for the deltas' created-output indexes.
type OutPointTag uint32

// TagOutPoint hashes op once for any number of CreatedTagged probes.
func TagOutPoint(op *btc.OutPoint) OutPointTag { return OutPointTag(outpointTag(deltaSeed, op)) }

// CreatedTagged resolves an outpoint this block created (and did not itself
// spend), for descendant-delta owner attribution. The caller probes several
// deltas for one outpoint, so the hash is the caller's, computed once; a hit
// is returned in place — shared and read-only like the rest of the delta —
// and a miss is nil.
func (d *BlockDelta) CreatedTagged(op *btc.OutPoint, tag OutPointTag) *UTXO {
	if _, pos := d.index.find(d.created, op, uint32(tag)); pos >= 0 {
		return &d.created[pos]
	}
	return nil
}

// OwnerResolver attributes a spent outpoint to the address keys whose views
// may contain it at the time the delta's block is processed: the stable
// set's owner and/or an unstable ancestor block that created it. It appends
// the owners to buf and returns the result, so a caller that reuses buf
// resolves without allocating. Appending nothing means the spend is a no-op
// for every address view (an alien or already-folded input), exactly as the
// naive replay's unconditional map delete would be.
type OwnerResolver func(op btc.OutPoint, buf []OwnedOutput) []OwnedOutput

// OwnedOutput is one resolution result: the address key owning the outpoint
// and the output's value (for balance deltas).
type OwnedOutput struct {
	AddressKey string
	Value      int64
}

// PreparedDelta is the state-independent half of a BlockDelta: everything
// derivable from the block alone — the created column (netted against
// in-block spends) with its groups and index, and the ordered list of inputs
// still needing owner attribution. Finish binds it to the state the block
// attached at. The canister prepares and finishes a block's delta in one go
// (BuildBlockDelta), when a payload ends and only for blocks still above the
// anchor: a block the payload folds is never read, so it pays for no delta.
// The one delta that is prepared and not resolved is the created column a
// stream frame carries for such a block (Finish with a nil resolver).
//
// A PreparedDelta is single-use: Finish completes its delta in place.
type PreparedDelta struct {
	delta *BlockDelta
	// spends holds every non-coinbase input outpoint in block order — the
	// order the serial path would resolve them in.
	spends []btc.OutPoint
}

// groupOf returns key's dense id, opening its group on first sight.
func (d *BlockDelta) groupOf(key string) uint32 {
	id, ok := d.ids[key]
	if !ok {
		id = uint32(len(d.groups))
		d.ids[key] = id
		d.groups = append(d.groups, addrGroup{key: key})
	}
	return id
}

// PrepareBlockDelta computes the state-independent half of a block's delta:
// a pure function of the block, plus the memoized address-key derivation.
func PrepareBlockDelta(block *btc.Block, height int64, ids *btc.ScriptIDCache) *PreparedDelta {
	return prepareDelta(block.Transactions, block.TxIDs(), height, ids)
}

// prepareDelta is PrepareBlockDelta over transactions and their ids, in three
// passes over flat scratch.
func prepareDelta(txs []*btc.Transaction, txids []btc.Hash, height int64, ids *btc.ScriptIDCache) *PreparedDelta {
	nOut, nIn := 0, 0
	for _, tx := range txs {
		nOut += len(tx.Outputs)
		if !tx.IsCoinbase() {
			nIn += len(tx.Inputs)
		}
	}
	spends := make([]btc.OutPoint, 0, nIn)

	// Replay, by BlockDelta's survival rule: outs takes every distinct created
	// outpoint at its first creation, and the index answers "created earlier
	// in this block?". mark holds a position's state: 0 (alive) or deadRef
	// here, then its group, then its place in the created column.
	outs := make([]UTXO, 0, nOut)
	mark := make([]uint32, nOut)
	index := newCreatedIndex(nOut)
	for ti, tx := range txs {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				op := &tx.Inputs[i].PreviousOutPoint
				if _, pos := index.find(outs, op, outpointTag(deltaSeed, op)); pos >= 0 {
					mark[pos] = deadRef
				}
				// Owner attribution needs live state; defer it to Finish, in
				// this exact order.
				spends = append(spends, *op)
			}
		}
		for vout := range tx.Outputs {
			u := UTXO{
				OutPoint: btc.OutPoint{TxID: txids[ti], Vout: uint32(vout)},
				Value:    tx.Outputs[vout].Value,
				PkScript: tx.Outputs[vout].PkScript,
				Height:   height,
			}
			tag := outpointTag(deltaSeed, &u.OutPoint)
			slot, pos := index.find(outs, &u.OutPoint, tag)
			if pos < 0 {
				pos = len(outs)
				outs = append(outs, u)
				index.put(slot, tag, pos)
			} else {
				outs[pos] = u
			}
			mark[pos] = 0
		}
	}

	// Count the survivors of each key, then scatter them into its run: block
	// order within a key is kept because positions are visited in order. cHi
	// counts, then is the run's write cursor, and ends as its upper bound. The
	// key map starts at a key per transaction, a guess it outgrows if it must.
	d := &BlockDelta{height: height, index: index, ids: make(map[string]uint32, len(txs))}
	live := 0
	for pos := range outs {
		if mark[pos] == deadRef {
			continue
		}
		id := d.groupOf(ids.ID(outs[pos].PkScript))
		d.groups[id].cHi++
		mark[pos] = id
		live++
	}
	next := uint32(0)
	for i := range d.groups {
		g := &d.groups[i]
		g.cLo, g.cHi, next = next, next, next+g.cHi
	}
	d.created = make([]UTXO, live)
	for pos := range outs {
		if mark[pos] == deadRef {
			continue
		}
		g := &d.groups[mark[pos]]
		d.created[g.cHi] = outs[pos]
		g.cHi++
		mark[pos] = g.cHi
	}
	// The index named positions in outs; mark now says where each one went.
	for i, w := range index {
		if w != 0 {
			index[i] = w&^math.MaxUint32 | uint64(mark[uint32(w)-1])
		}
	}
	return &PreparedDelta{delta: d, spends: spends}
}

// Finish attributes the prepared delta's external spends through resolve
// and returns the completed BlockDelta — byte-identical to what
// BuildBlockDelta would produce on the same state, because resolve is
// independent of the delta under construction and the spend order is
// preserved. A nil resolve attributes no spend: the delta holds its created
// column and no spent run.
func (p *PreparedDelta) Finish(resolve OwnerResolver) *BlockDelta {
	d := p.delta
	if resolve == nil {
		return d
	}
	// An outpoint has an owner among the unstable ancestors, one in the
	// stable set, both or neither: two slots serve every spend of the block.
	owners := make([]OwnedOutput, 0, 2)
	resolved := make([]SpentOutPoint, 0, len(p.spends))
	group := make([]uint32, 0, len(p.spends))
	for _, op := range p.spends {
		// Attribute the spend to every owner whose merged view could
		// currently contain the outpoint. Deletion is idempotent at merge
		// time, so over-attribution cannot skew the view.
		owners = resolve(op, owners[:0])
		for _, owner := range owners {
			id := d.groupOf(owner.AddressKey)
			d.groups[id].sHi++
			resolved = append(resolved, SpentOutPoint{OutPoint: op, Value: owner.Value})
			group = append(group, id)
		}
	}
	// The same count, cursor and scatter as the created column's.
	next := uint32(0)
	for i := range d.groups {
		g := &d.groups[i]
		g.sLo, g.sHi, next = next, next, next+g.sHi
	}
	d.spent = make([]SpentOutPoint, len(resolved))
	for i, id := range group {
		g := &d.groups[id]
		d.spent[g.sHi] = resolved[i]
		g.sHi++
	}
	return d
}

// BuildBlockDelta computes the address-indexed delta of one block. It
// replays the block's transactions in order — exactly the order the naive
// read path would — netting out outputs created and spent within the block,
// and attributes external spends through resolve. Transaction IDs come from
// the block's memoized table and address keys from the shared ScriptID
// cache, so neither is re-derived per output. It is PrepareBlockDelta
// followed by Finish.
func BuildBlockDelta(block *btc.Block, height int64, ids *btc.ScriptIDCache, resolve OwnerResolver) *BlockDelta {
	return PrepareBlockDelta(block, height, ids).Finish(resolve)
}
