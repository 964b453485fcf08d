// Package utxo implements the unspent-transaction-output set the Bitcoin
// canister stores (§III-C): "the implementation uses a data structure with
// Bitcoin addresses as the index for an efficient retrieval of all UTXOs
// associated with an address."
//
// The address index is ordered (see index.go): every bucket maintains the
// canonical height-descending get_utxos order incrementally, so reads
// stream pages in O(log n + page) and balances are O(1) running totals. On
// the write path locking scripts are interned — each distinct script is
// address-decoded/hashed once and its bytes stored once — and every entry
// names its script by a dense id, so a spend never recomputes a ScriptID.
//
// An outpoint is found through one open-addressed table, not a Go map
// (table.go has the layout and why it is two-level). What the rest of the
// package relies on:
//
//   - A lookup is a pure read — it probes and writes nothing — so replicas
//     serve Get, Lookup and the page walks under a read lock.
//   - Slot placement comes from a hash seeded per Set; nothing observable
//     (snapshot bytes, page order, ForEach order) depends on the seed.
//   - A script id indexes Set.scripts. An id is recycled once its reference
//     count reaches zero, so nothing may hold an id across the release of
//     its last entry.
//   - Each UTXO is stored once, in the table's arena; a bucket holds arena
//     refs in one slab, in storage order, and a height group is a record of
//     where its run of them lies. The table's index words, its arena chunks, every slab and
//     every group record hold no pointer: the collector skips them. Pointers
//     remain only in the script records, the two string-keyed maps and each
//     bucket's two slice headers.
//   - A height lies in [0, 2^32): the arena keeps it in 4 bytes. The fold
//     and both decoders refuse any other.
//   - A block fold has two halves: the table half (outpoint table, script
//     records, metering stats) and the index half (buckets), which the
//     table half records and applyIndex performs. The fold returns
//     after the table half; the index half trails on a goroutine of its own,
//     in block order, until the first bucket read. Every bucket reader
//     settles first: Balance, MergedBalance, MergedPage, AddressIter,
//     AddressUTXOCount, AddressCount, UTXOsForAddress and EncodeTo wait for
//     the index halves still running. An index half reads arena slots
//     through its groups' refs — resolved through the chunk list as its
//     fold's table half left it, as later table halves append chunks — so a
//     slot a fold takes is reused only once that fold's index half has run.
//     Table readers (Get, Lookup, Value, Len, ForEach) do not wait, so a
//     caller can go on with work that reads only the table, such as
//     resolving owners for deltas, while the index catches up.
//   - While a removal log is open, the table half also logs every entry it
//     spends that was in the set before the block, so a caller can still ask
//     what the set held before a run of folds (RemovedSince).
//
// A set changes one way: a whole block is folded into it (ApplyBlockIngest),
// or it is decoded whole from a snapshot. Nothing is unapplied. The canister
// folds δ-stable blocks and never rolls back below the anchor; a simulated
// Bitcoin node folds its active chain and, to switch branches, refolds the
// new chain from genesis into a fresh set. The set also answers balances and
// the height-descending pages of the get_utxos endpoint.
package utxo

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"

	"icbtc/internal/btc"
)

// UTXO is one unspent output together with the height of the block that
// created it.
type UTXO struct {
	OutPoint btc.OutPoint
	Value    int64
	PkScript []byte
	Height   int64
}

// internedScript is the single stored copy of one distinct locking script
// together with its memoized address key. Interning makes the per-output
// cost of repeated scripts (the common case: one address receiving many
// outputs) a map probe instead of an address decode plus SHA-256.
type internedScript struct {
	bytes []byte
	key   string
	refs  int32
	// pend is scratch of the block apply in progress: the script's most
	// recent pending insert (see blockMerge), 0 between applies.
	pend int32
}

// Set is an address-indexed UTXO set. The zero value is not usable; use New.
type Set struct {
	network btc.Network
	// table is the authoritative store of unspent outputs.
	table outpointTable
	// byAddress indexes ordered buckets by the ScriptID of their locking
	// script (see index.go).
	byAddress map[string]*bucket
	// scripts holds the interned scripts by id, the zero record at an id in
	// freeScripts; interned finds a script's id by its bytes.
	scripts     []internedScript
	freeScripts []uint32
	interned    map[string]uint32
	// trail holds the last foldHandoff folds' index halves, oldest first
	// (see flush); the last one is done once the index has caught up with
	// the table.
	trail []trailingFold
	// removed is the open removal log (OpenRemovalLog); nil when none is.
	removed *removalLog
}

// New creates an empty UTXO set for a network.
func New(network btc.Network) *Set {
	return &Set{
		network:   network,
		table:     newOutpointTable(rand.Uint64(), 0),
		byAddress: make(map[string]*bucket),
		interned:  make(map[string]uint32),
	}
}

// Len returns the number of unspent outputs.
func (s *Set) Len() int { return s.table.n }

// Network returns the network the set indexes addresses for.
func (s *Set) Network() btc.Network { return s.network }

// intern returns the id of the single stored copy of script, creating it
// (one copy, one ScriptID derivation) on first sight.
func (s *Set) intern(script []byte) uint32 {
	if id, ok := s.interned[string(script)]; ok {
		return id
	}
	sc := internedScript{bytes: bytes.Clone(script), key: btc.ScriptID(script, s.network)}
	var id uint32
	if n := len(s.freeScripts); n > 0 {
		id, s.freeScripts = s.freeScripts[n-1], s.freeScripts[:n-1]
		s.scripts[id] = sc
	} else {
		id = uint32(len(s.scripts))
		s.scripts = append(s.scripts, sc)
	}
	s.interned[string(sc.bytes)] = id
	return id
}

// release drops one reference to an interned script. When the last UTXO
// carrying it is spent the script is un-interned and its id freed for reuse,
// so neither the map nor the record slice can grow unboundedly.
func (s *Set) release(id uint32) {
	sc := &s.scripts[id]
	sc.refs--
	if sc.refs == 0 {
		delete(s.interned, string(sc.bytes))
		*sc = internedScript{}
		s.freeScripts = append(s.freeScripts, id)
	}
}

// ScriptInterned reports whether the set already holds an interned copy of
// script — i.e. whether inserting another output with it skips the address
// decode and hash. The execution layer's metering uses this to price
// insertions (Fig 6). The lookup itself allocates nothing.
func (s *Set) ScriptInterned(script []byte) bool {
	_, ok := s.interned[string(script)]
	return ok
}

// InternedScripts returns the number of distinct locking scripts currently
// interned (observability).
func (s *Set) InternedScripts() int { return len(s.interned) }

// enter fills the entry table.put just created at ref and counts it against
// its script; the ref is the caller's to insert into a bucket.
func (s *Set) enter(ref uint32, value, height int64, script uint32) {
	e := s.table.at(ref)
	e.value, e.script = value, script
	*s.table.heightAt(ref) = uint32(height)
	s.scripts[script].refs++
}

// bucketFor returns the address's bucket, creating it when absent.
func (s *Set) bucketFor(key string) *bucket {
	b := s.byAddress[key]
	if b == nil {
		b = &bucket{}
		s.byAddress[key] = b
	}
	return b
}

// utxoOf materializes a stored entry of the given height.
func (s *Set) utxoOf(e *tableEntry, height int64) UTXO {
	return UTXO{OutPoint: e.op, Value: e.value, PkScript: s.scripts[e.script].bytes, Height: height}
}

// drop gives up what an entry taken from the table holds besides its place
// in a bucket — its script reference — and returns its address key, read
// first: the release may recycle the script's id.
func (s *Set) drop(e *tableEntry) string {
	key := s.scripts[e.script].key
	s.release(e.script)
	return key
}

// removal is a spent entry's place in a bucket, named by what finds it: the
// address key, the height group and the ref. The ref's slot is held until
// the removal has run (see flush), so its outpoint and value can still be
// read; its height cannot, as the held chain runs through it.
type removal struct {
	key    string
	ref    uint32
	height int64
}

// unindex deletes a spent entry, read through a, from its bucket; a bucket
// it drains is dropped, so the bucket's storage is released.
func (s *Set) unindex(a arena, r *removal) {
	if b := s.byAddress[r.key]; b.remove(a, r.ref, r.height) && b.count == 0 {
		delete(s.byAddress, r.key)
	}
}

// Get returns the UTXO for an outpoint if present.
func (s *Set) Get(op btc.OutPoint) (UTXO, bool) {
	u, _, ok := s.Lookup(op)
	return u, ok
}

// Value returns the value of an outpoint's UTXO: Get for a caller that
// prices rather than lists, which reads no script.
func (s *Set) Value(op btc.OutPoint) (int64, bool) {
	if _, e := s.table.get(&op); e != nil {
		return e.value, true
	}
	return 0, false
}

// Lookup returns the UTXO for an outpoint together with its memoized address
// key, in one probe.
func (s *Set) Lookup(op btc.OutPoint) (UTXO, string, bool) {
	ref, e := s.table.get(&op)
	if e == nil {
		return UTXO{}, "", false
	}
	return s.utxoOf(e, int64(*s.table.heightAt(ref))), s.scripts[e.script].key, true
}

// pendingInsert is one output a block apply has entered into the outpoint
// table (script interned and referenced, bytes counted) but not yet into its
// address bucket: its ref, and its outpoint, by which the block's spends
// find it and the index half sorts its group.
type pendingInsert struct {
	op  btc.OutPoint
	ref uint32
	// prev is the script's previous pending insert of this block, as index+1
	// into blockMerge.pending; 0 ends the chain.
	prev int32
	// spent marks an output a later transaction of the same block consumed.
	spent bool
}

// scriptChain is one script's chain of a block's pending inserts: while the
// block is applied only its id is known; flush reads its key and chain head.
type scriptChain struct {
	script uint32
	head   int32
	key    string
}

// indexWork is a block fold's index half, everything its table half left for
// the buckets: spends of entries already in them, then each touched script's
// surviving pending inserts as one new height group. arena is the table's
// chunk list as flush left it, which resolves every ref the index half
// names.
type indexWork struct {
	arena    arena
	height   int64
	removals []removal
	chains   []scriptChain
	pending  []pendingInsert
}

// blockMerge is a block fold's table half. Outputs go into the outpoint table
// at once — so later inputs and duplicate checks see them — and are chained
// per interned script through internedScript.pend; spends leave the table at
// once too, and a spend of an entry already in its bucket is recorded as a
// removal. The buckets are written by the index half alone (applyIndex),
// after the block. A script whose outputs the block all spends again gives up
// its id with the chain; whatever reuses the id starts a new one.
type blockMerge struct {
	s *Set
	indexWork
	// byOp finds a pending insert by outpoint. It is built at the block's
	// first spend of an entry of its own height and kept up from there.
	byOp map[btc.OutPoint]int32
}

func (s *Set) newBlockMerge(height int64, inputs, outputs int) blockMerge {
	return blockMerge{s: s, indexWork: indexWork{
		height:   height,
		removals: make([]removal, 0, inputs),
		pending:  make([]pendingInsert, 0, outputs),
	}}
}

// insert enters an output under the entry table.put just created for it.
func (m *blockMerge) insert(ref uint32, value int64, script uint32) {
	m.s.enter(ref, value, m.height, script)
	sc := &m.s.scripts[script]
	if sc.pend == 0 {
		m.chains = append(m.chains, scriptChain{script: script})
	}
	op := &m.s.table.at(ref).op
	m.pending = append(m.pending, pendingInsert{op: *op, ref: ref, prev: sc.pend})
	sc.pend = int32(len(m.pending))
	if m.byOp != nil {
		m.byOp[*op] = sc.pend
	}
}

// spend takes op out of the table and, wherever this block's apply has left
// its ref, out of the index: a pending insert of an earlier transaction of
// the block is marked spent, a ref in its bucket becomes a removal. It
// reports false when the set does not hold op.
func (m *blockMerge) spend(op btc.OutPoint) bool {
	ref, e, height, ok := m.s.table.take(&op)
	if !ok {
		return false
	}
	key := m.s.drop(&e)
	if i := m.pendingIndex(&op, height); i > 0 {
		m.pending[i-1].spent = true
	} else {
		m.removals = append(m.removals, removal{key: key, ref: ref, height: height})
		if l := m.s.removed; l != nil {
			l.add(removedEntry{op: op, key: key, value: e.value})
		}
	}
	return true
}

// pendingIndex returns, as index+1, the pending insert a spent entry of op
// and height came from, 0 when it came from its bucket. Only an entry of this
// block's height can be pending, but an earlier fold at the same height may
// have bucketed it, so membership in byOp decides.
func (m *blockMerge) pendingIndex(op *btc.OutPoint, height int64) int32 {
	if height != m.height {
		return 0
	}
	if m.byOp == nil {
		m.byOp = make(map[btc.OutPoint]int32, len(m.pending))
		for i := range m.pending {
			// A re-created outpoint overwrites its spent predecessor.
			m.byOp[m.pending[i].op] = int32(i + 1)
		}
	}
	return m.byOp[*op]
}

// trailingFold is one fold's index half in flight: done closes once it has
// run, and held chains the arena slots the fold's table half took, which
// this index half and the ones before it may still read.
type trailingFold struct {
	done chan struct{}
	held slotChain
}

// flush ends the table half: it reads each touched script's key and chain
// head, clears the chain off the script record, and hands the block's index
// half to a goroutine that runs it once the previous block's is done. With
// foldHandoff index halves in flight it first waits for the oldest and
// recycles the slots that fold took: no index half still running can read
// them, as every one that could has run. It walks no chain and sorts
// nothing. A script released in the block whose id was reused is listed
// twice: the first entry reads the new script's chain and clears it, the
// second reads an empty one.
func (m *blockMerge) flush() {
	for i := range m.chains {
		c := &m.chains[i]
		sc := &m.s.scripts[c.script]
		c.key, c.head = sc.key, sc.pend
		sc.pend = 0
	}
	m.arena = m.s.table.chunks
	s, w, done := m.s, m.indexWork, make(chan struct{})
	var prev chan struct{}
	if n := len(s.trail); n > 0 {
		prev = s.trail[n-1].done
	}
	if len(s.trail) == foldHandoff {
		<-s.trail[0].done
		s.table.recycle(s.trail[0].held)
		s.trail = append(s.trail[:0], s.trail[1:]...)
	}
	s.trail = append(s.trail, trailingFold{done: done, held: s.table.held})
	s.table.held = slotChain{}
	go func() {
		defer close(done)
		if prev != nil {
			<-prev
		}
		s.applyIndex(&w)
	}()
}

// settle waits until the index halves of every fold so far are done. Every
// bucket reader calls it first. It writes nothing, so readers sharing a read
// lock may settle at once.
func (s *Set) settle() {
	if n := len(s.trail); n > 0 {
		<-s.trail[n-1].done
	}
}

// applyIndex is the index half of a block fold and the fold path's one writer
// of buckets: it performs the removals, then appends each chain's surviving
// inserts to its bucket's slab, sorts them there and files them as one
// height group. It reads no script
// record, and of the table only the outpoints and values of entries it
// names, through w.arena — slots that are live or held — so it can trail the
// table half on a goroutine of its own.
func (s *Set) applyIndex(w *indexWork) {
	for i := range w.removals {
		s.unindex(w.arena, &w.removals[i])
	}
	for _, c := range w.chains {
		n := 0
		for i := c.head; i > 0; i = w.pending[i-1].prev {
			if !w.pending[i-1].spent {
				n++
			}
		}
		if n == 0 {
			continue
		}
		// The run holds pending indexes, in block order, until they are
		// sorted by outpoint and swapped for the refs they carry.
		b := s.bucketFor(c.key)
		lo := len(b.refs)
		b.refs = slices.Grow(b.refs, n)[:lo+n]
		run := b.refs[lo:]
		for i := c.head; i > 0; i = w.pending[i-1].prev {
			if !w.pending[i-1].spent {
				n--
				run[n] = uint32(i - 1)
			}
		}
		if len(run) > 1 {
			slices.SortFunc(run, func(x, y uint32) int { return cmpOutPoint(&w.pending[x].op, &w.pending[y].op) })
		}
		for k, i := range run {
			run[k] = w.pending[i].ref
		}
		b.insertGroup(w.arena, w.height, lo)
	}
}

// foldHandoff is how many blocks' index halves may trail the table before the
// next fold waits: enough to ride out a block whose index half runs long
// (many touched addresses) without stalling the table half, few enough that
// the trailing blocks' records stay a small part of the heap.
const foldHandoff = 4

// removalLog is what folds took out of the set while the log was open: every
// entry a fold spent that was in the set before the fold's block (its place
// in a bucket became a removal), in the order the entries left. Outputs a block
// both created and spent never were in the set, so they are not logged.
type removalLog struct {
	// entries[i] was logged at mark base+i; a trim drops a prefix.
	entries []removedEntry
	base    int
	// latest maps an outpoint to the mark of its last entry. The first lookup
	// after a change builds it.
	latest map[btc.OutPoint]int
}

// removedEntry is one logged removal: the outpoint and the address key and
// value it had in the set.
type removedEntry struct {
	op    btc.OutPoint
	key   string
	value int64
}

func (l *removalLog) add(e removedEntry) {
	l.entries = append(l.entries, e)
	l.latest = nil
}

// OpenRemovalLog starts logging removals: from here until CloseRemovalLog,
// RemovedSince answers for every entry a fold takes that was in the set
// before the fold's block. The canister opens one per payload, so that a
// block's delta, finished once the payload's folds are done, still sees the
// outputs those folds spent.
func (s *Set) OpenRemovalLog() { s.removed = &removalLog{} }

// CloseRemovalLog ends the log and drops everything in it.
func (s *Set) CloseRemovalLog() { s.removed = nil }

// RemovalMark names the current end of the open log: RemovedSince(op, mark)
// sees exactly the removals logged after this call.
func (s *Set) RemovalMark() int { return s.removed.base + len(s.removed.entries) }

// TrimRemovals lets the open log forget the removals logged before mark; no
// later RemovedSince may ask from an earlier mark. The log gives up the
// forgotten prefix once it is at least half of what it holds, so a log
// trimmed as it goes stays within twice what it must remember.
func (s *Set) TrimRemovals(mark int) {
	l := s.removed
	drop := mark - l.base
	if drop <= 0 || drop < len(l.entries)/2 {
		return
	}
	n := copy(l.entries, l.entries[drop:])
	clear(l.entries[n:])
	l.entries = l.entries[:n]
	l.base = mark
	l.latest = nil
}

// RemovedSince reports whether a fold removed op at or after mark while the
// log was open, and the address key and value op had. An outpoint logged
// twice — removed, created again, removed again — names one transaction
// output both times, so either entry answers.
func (s *Set) RemovedSince(op btc.OutPoint, mark int) (key string, value int64, ok bool) {
	l := s.removed
	if l.latest == nil {
		l.latest = make(map[btc.OutPoint]int, len(l.entries))
		for i := range l.entries {
			l.latest[l.entries[i].op] = l.base + i
		}
	}
	at, found := l.latest[op]
	if !found || at < mark {
		return "", 0, false
	}
	e := &l.entries[at-l.base]
	return e.key, e.value, true
}

// IngestStats reports the work of one tolerant block fold into the stable
// set — the counts the execution layer's metering prices (Fig 6). Outputs
// are classified by whether their locking script was interned at the moment
// that output was processed (insertions earlier in the same block count),
// exactly as the per-entry loop's ScriptInterned probe would have.
type IngestStats struct {
	// InputsRemoved counts removal attempts (every non-coinbase input;
	// metering charges the attempt, not the success).
	InputsRemoved int
	// OutputsInterned/OutputsFresh partition every output (including
	// skipped duplicates, which the per-entry loop also charged) by the
	// at-the-time interned status of its script.
	OutputsInterned int
	OutputsFresh    int
	// Errors counts tolerated failures: missing inputs plus duplicate
	// outputs, both skipped without touching the set.
	Errors int
}

// ApplyBlockIngest folds a block into the set tolerantly — the canister's
// stable-ingestion semantics: a missing input or duplicate output is
// counted and skipped rather than failing the block ("the canister trusts
// proof of work, not transaction validity"). It is one pass in block order
// straight against the set — each input removed, each output inserted, the
// outpoint table probed once per entry — so the final state is that of a
// per-entry remove/add loop that ignores individual errors, and an output's
// metering class is simply whether its script is interned when the pass
// reaches it. Only the buckets wait: the pass records their removals and
// inserts, and the index half applies them on a goroutine of its own, which
// the next bucket read waits for. No undo data is built; the canister never
// rolls back below the anchor. A height outside [0, 2^32) is refused with a
// panic before the set is touched: no chain reaches it, and the arena's
// height column could not hold it.
func (s *Set) ApplyBlockIngest(block *btc.Block, height int64) IngestStats {
	if !heightInRange(height) {
		panic(fmt.Sprintf("utxo: block height %d out of range", height))
	}
	var st IngestStats
	inputs, outputs := 0, 0
	for _, tx := range block.Transactions {
		inputs += len(tx.Inputs) // the coinbase's one too: a slot to spare
		outputs += len(tx.Outputs)
	}
	m := s.newBlockMerge(height, inputs, outputs)
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				st.InputsRemoved++
				if !m.spend(tx.Inputs[i].PreviousOutPoint) {
					st.Errors++
				}
			}
		}
		op := btc.OutPoint{TxID: txids[ti]}
		for vout := range tx.Outputs {
			out := &tx.Outputs[vout]
			script, interned := s.interned[string(out.PkScript)]
			if interned {
				st.OutputsInterned++
			} else {
				st.OutputsFresh++
			}
			op.Vout = uint32(vout)
			ref, fresh := s.table.put(&op)
			if !fresh {
				st.Errors++
				continue
			}
			if !interned {
				script = s.intern(out.PkScript)
			}
			m.insert(ref, out.Value, script)
		}
	}
	m.flush()
	return st
}

// Balance returns the total unspent value locked to an address key: the
// bucket's running total, maintained as entries enter and leave it — O(1),
// no bucket walk.
func (s *Set) Balance(addressKey string) int64 {
	s.settle()
	b := s.byAddress[addressKey]
	if b == nil {
		return 0
	}
	return b.balance
}

// UTXOsForAddress returns all UTXOs for an address key sorted by height in
// descending order (the get_utxos contract: "sorted by block height in
// descending order, ensuring the correctness of the pagination mechanism"),
// with ties broken deterministically by outpoint. The bucket maintains its
// height groups in order incrementally, so the call streams the canonical
// order in one pass — no sort.
func (s *Set) UTXOsForAddress(addressKey string) []UTXO {
	s.settle()
	b := s.byAddress[addressKey]
	if b == nil {
		return nil
	}
	out := make([]UTXO, 0, b.count)
	it := s.AddressIter(addressKey)
	for u, ok := it.Next(); ok; u, ok = it.Next() {
		out = append(out, u)
	}
	return out
}

// AddressCount returns the number of distinct address keys with UTXOs.
func (s *Set) AddressCount() int {
	s.settle()
	return len(s.byAddress)
}

// ForEach visits every UTXO in unspecified order; visit returning false
// stops the walk.
func (s *Set) ForEach(visit func(UTXO) bool) {
	s.table.each(func(e *tableEntry, height int64) bool { return visit(s.utxoOf(e, height)) })
}
