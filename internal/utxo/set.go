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
// names its script by a dense id, so Remove never recomputes a ScriptID.
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
//   - The table's index words, its arena chunks and every height group's
//     entries hold no pointer: the collector skips them. Pointers remain
//     only in the script records, the two string-keyed maps and the group
//     headers.
//   - A block fold has two halves: the table half (outpoint table, script
//     records, byte estimate, metering stats) and the index half (buckets),
//     which the table half records and applyIndex performs. The index may
//     trail the table only inside a FoldSession, and nothing reads it there.
//   - While a removal log is open, the table half also logs every entry it
//     spends that was in the set before the block, so a caller can still ask
//     what the set held before a run of folds (RemovedSince).
//
// The set supports applying and unapplying whole blocks (the latter is used
// by the simulated Bitcoin nodes during reorgs; the canister itself never
// rolls back below the anchor), balance computation, and height-descending
// paginated retrieval as required by the get_utxos endpoint.
package utxo

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"

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
	// approxBytes tracks an estimate of resident memory, reported by Fig 5.
	approxBytes int64
	// handoff carries folds' index halves to the FoldSession goroutine; nil
	// outside a session, where they run inline.
	handoff chan indexWork
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

// ApproxBytes returns an estimate of the set's resident size in bytes
// (outpoint + entry overhead + script bytes), used by the Fig 5 experiment.
func (s *Set) ApproxBytes() int64 { return s.approxBytes }

// Network returns the network the set indexes addresses for.
func (s *Set) Network() btc.Network { return s.network }

// perUTXOOverhead approximates the per-output storage footprint of the
// production canister (value, outpoint, address index entry, and stable-
// memory bookkeeping): the paper's end point of 103 GiB for ~170 M UTXOs
// works out to ~650 bytes per UTXO, most of it metadata rather than the
// script itself.
const perUTXOOverhead = 580

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

// Add inserts an unspent output. Adding a duplicate outpoint is an error
// (it would indicate a consensus bug upstream).
func (s *Set) Add(op btc.OutPoint, out btc.TxOut, height int64) error {
	e, fresh := s.table.put(&op)
	if !fresh {
		return fmt.Errorf("utxo: duplicate outpoint %s", op)
	}
	s.enter(e, out.Value, height, s.intern(out.PkScript))
	s.bucketFor(s.scripts[e.script].key).insertGroup(height, []bucketEntry{e.bucketEntry})
	return nil
}

// enter fills the entry table.put just created and counts it against its
// script and the byte estimate; its bucket entry is the caller's to insert.
func (s *Set) enter(e *tableEntry, value, height int64, script uint32) {
	e.value, e.height, e.script = value, height, script
	sc := &s.scripts[script]
	sc.refs++
	s.approxBytes += int64(perUTXOOverhead + len(sc.bytes))
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

// ErrMissingOutput is returned when spending an output not in the set.
var ErrMissingOutput = errors.New("utxo: output not in set")

// Remove spends an output, returning the removed UTXO so callers can build
// undo data. The stored address key is reused — no script decoding.
func (s *Set) Remove(op btc.OutPoint) (UTXO, error) {
	e, ok := s.table.take(&op)
	if !ok {
		return UTXO{}, fmt.Errorf("%w: %s", ErrMissingOutput, op)
	}
	u := s.utxoOf(&e)
	s.unindex(&removal{key: s.drop(&e), op: op, height: e.height})
	return u, nil
}

// utxoOf materializes a stored entry.
func (s *Set) utxoOf(e *tableEntry) UTXO {
	return UTXO{OutPoint: e.op, Value: e.value, PkScript: s.scripts[e.script].bytes, Height: e.height}
}

// drop gives up what an entry taken from the table holds besides its bucket
// entry — its byte estimate and its script reference — and returns its
// address key, read first: the release may recycle the script's id.
func (s *Set) drop(e *tableEntry) string {
	sc := &s.scripts[e.script]
	s.approxBytes -= int64(perUTXOOverhead + len(sc.bytes))
	key := sc.key
	s.release(e.script)
	return key
}

// removal is a spent entry's bucket entry, named by what finds it: the
// address key, the outpoint and the height group.
type removal struct {
	key    string
	op     btc.OutPoint
	height int64
}

// unindex deletes a spent entry from its bucket; a bucket it drains is
// dropped, so the bucket's storage is released.
func (s *Set) unindex(r *removal) {
	if b := s.byAddress[r.key]; b.remove(&r.op, r.height) && b.count == 0 {
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
	if e := s.table.get(&op); e != nil {
		return e.value, true
	}
	return 0, false
}

// Lookup returns the UTXO for an outpoint together with its memoized address
// key, in one probe.
func (s *Set) Lookup(op btc.OutPoint) (UTXO, string, bool) {
	e := s.table.get(&op)
	if e == nil {
		return UTXO{}, "", false
	}
	return s.utxoOf(e), s.scripts[e.script].key, true
}

// pendingInsert is one output a block apply has entered into the outpoint
// table (script interned and referenced, bytes counted) but not yet into its
// address bucket.
type pendingInsert struct {
	entry bucketEntry
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
// surviving pending inserts as one new height group.
type indexWork struct {
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
func (m *blockMerge) insert(e *tableEntry, value int64, script uint32) {
	m.s.enter(e, value, m.height, script)
	sc := &m.s.scripts[script]
	if sc.pend == 0 {
		m.chains = append(m.chains, scriptChain{script: script})
	}
	m.pending = append(m.pending, pendingInsert{entry: e.bucketEntry, prev: sc.pend})
	sc.pend = int32(len(m.pending))
	if m.byOp != nil {
		m.byOp[e.op] = sc.pend
	}
}

// spend takes op out of the table and, wherever this block's apply has left
// its bucket entry, out of the index: a pending insert of an earlier
// transaction of the block is marked spent, an entry in its bucket becomes a
// removal. It reports false when the set does not hold op.
func (m *blockMerge) spend(op btc.OutPoint) bool {
	e, ok := m.s.table.take(&op)
	if !ok {
		return false
	}
	key := m.s.drop(&e)
	if i := m.pendingIndex(&e); i > 0 {
		m.pending[i-1].spent = true
	} else {
		m.removals = append(m.removals, removal{key: key, op: op, height: e.height})
		if l := m.s.removed; l != nil {
			l.add(removedEntry{op: op, key: key, value: e.value})
		}
	}
	return true
}

// pendingIndex returns, as index+1, the pending insert a spent entry came
// from, 0 when it came from its bucket. Only an entry of this block's height
// can be pending, but an earlier fold at the same height may have bucketed it,
// so membership in byOp decides.
func (m *blockMerge) pendingIndex(e *tableEntry) int32 {
	if e.height != m.height {
		return 0
	}
	if m.byOp == nil {
		m.byOp = make(map[btc.OutPoint]int32, len(m.pending))
		for i := range m.pending {
			// A re-created outpoint overwrites its spent predecessor.
			m.byOp[m.pending[i].entry.op] = int32(i + 1)
		}
	}
	return m.byOp[e.op]
}

// flush ends the table half: it reads each touched script's key and chain
// head, clears the chain off the script record, and hands the block's index
// half over — queued behind earlier blocks' inside a FoldSession, run at once
// outside one. It walks no chain and sorts nothing. A script released in the
// block whose id was reused is listed twice: the first entry reads the new
// script's chain and clears it, the second reads an empty one.
func (m *blockMerge) flush() {
	for i := range m.chains {
		c := &m.chains[i]
		sc := &m.s.scripts[c.script]
		c.key, c.head = sc.key, sc.pend
		sc.pend = 0
	}
	if m.s.handoff != nil {
		m.s.handoff <- m.indexWork
		return
	}
	m.s.applyIndex(&m.indexWork)
}

// applyIndex is the index half of a block fold and the fold path's one writer
// of buckets: it performs the removals, then merges each chain's surviving
// inserts into its bucket as one sorted height group. It reads neither the
// table nor the script records, so it can trail the table half on a goroutine
// of its own.
func (s *Set) applyIndex(w *indexWork) {
	for i := range w.removals {
		s.unindex(&w.removals[i])
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
		list := make([]bucketEntry, n)
		for i := c.head; i > 0; i = w.pending[i-1].prev {
			if p := &w.pending[i-1]; !p.spent {
				n--
				list[n] = p.entry
			}
		}
		sortEntries(list)
		s.bucketFor(c.key).insertGroup(w.height, list)
	}
}

// foldHandoff is how many blocks' index halves a FoldSession queues before
// the folding goroutine waits: enough to ride out a block whose index half
// runs long (many touched addresses) without stalling the table half, few
// enough that the queued blocks' records stay a small part of the heap.
const foldHandoff = 4

// FoldSession runs fn with the address index trailing the outpoint table:
// the index half of every fold fn makes runs on the session's goroutine, in
// block order, through a handoff of foldHandoff blocks, and the session
// drains before FoldSession returns, on every path out of fn. Meanwhile fn
// may change the set only by ApplyBlockIngest and ApplyBlock, read only the
// table (Get, Lookup, Len, ApproxBytes, ScriptInterned), never a bucket, and
// use the removal log, which the table half writes. Sessions do not nest.
func (s *Set) FoldSession(fn func()) {
	work := make(chan indexWork, foldHandoff)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := range work {
			s.applyIndex(&w)
		}
	}()
	s.handoff = work
	defer func() {
		s.handoff = nil
		close(work)
		<-done
	}()
	fn()
}

// removalLog is what folds took out of the set while the log was open: every
// entry a fold spent that was in the set before the fold's block (its bucket
// entry became a removal), in the order the entries left. Outputs a block
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

// BlockUndo records everything needed to unapply a block. Outputs both
// created and spent within the same block (in-block spend chains, routine
// in real Bitcoin) net to nothing and are excluded entirely: they are
// invisible in the post-apply state, so undo has nothing to reverse. (The
// old per-entry apply recorded such pairs in both lists, which made
// UnapplyBlock fail on any block containing one.)
type BlockUndo struct {
	// Spent holds the pre-existing UTXOs the block consumed, in
	// consumption order.
	Spent []UTXO
	// Created holds the outpoints of outputs the block added that were
	// still unspent at the end of the block, in insertion order.
	Created []btc.OutPoint
}

// ApplyStats reports the work done applying a block; the execution layer's
// metering consumes these to price block ingestion (Fig 6).
type ApplyStats struct {
	OutputsInserted int
	InputsRemoved   int
	BytesInserted   int
}

// ApplyBlock applies all transactions of a block at the given height:
// removes every spent input (except coinbase inputs) and inserts every
// created output. Transaction IDs come from the block's memoized table —
// they are computed once per block, not re-serialized per call site. It
// returns undo data and work statistics.
//
// The apply is all-or-nothing, which is why — unlike the tolerant fold — it
// keeps a stage: the block is first replayed against a staged view (no set
// mutation), then committed through the fold's two halves — spends, then
// insertions, one merge per bucket — with undo entries carved from presized
// arenas. On error nothing was committed, so the set is left untouched (there
// is no rollback path to re-derive ScriptIDs on), and the first error in
// block order is reported exactly as a per-entry apply would have.
func (s *Set) ApplyBlock(block *btc.Block, height int64) (*BlockUndo, ApplyStats, error) {
	st, err := s.stageBlock(block)
	if err != nil {
		return nil, ApplyStats{}, fmt.Errorf("utxo: applying block at height %d: %w", height, err)
	}
	// Undo holds the net effect only: pre-existing spends and surviving
	// creations; in-block created-and-spent pairs cancel.
	undo := &BlockUndo{Spent: st.spentBase, Created: make([]btc.OutPoint, 0, len(st.liveIdx))}
	m := s.newBlockMerge(height, len(undo.Spent), len(st.liveIdx))
	for i := range undo.Spent {
		m.spend(undo.Spent[i].OutPoint)
	}
	for i := range st.inserts {
		if ins := &st.inserts[i]; ins.live {
			e, _ := s.table.put(&ins.op)
			m.insert(e, ins.out.Value, s.intern(ins.out.PkScript))
			undo.Created = append(undo.Created, ins.op)
		}
	}
	m.flush()
	stats := ApplyStats{
		OutputsInserted: len(st.inserts),
		InputsRemoved:   st.removed,
		BytesInserted:   st.bytesInserted,
	}
	return undo, stats, nil
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
// per-entry Remove/Add loop that ignores individual errors, and an output's
// metering class is simply whether its script is interned when the pass
// reaches it. Only the buckets wait: the pass records their removals and
// inserts, and the index half applies them after it — at once, or inside a
// FoldSession on the session's goroutine. No undo data is built; the
// canister never rolls back below the anchor.
func (s *Set) ApplyBlockIngest(block *btc.Block, height int64) IngestStats {
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
			e, fresh := s.table.put(&op)
			if !fresh {
				st.Errors++
				continue
			}
			if !interned {
				script = s.intern(out.PkScript)
			}
			m.insert(e, out.Value, script)
		}
	}
	m.flush()
	return st
}

// stagedInsert is one successfully staged output creation.
type stagedInsert struct {
	op  btc.OutPoint
	out btc.TxOut
	// live is cleared when a later transaction in the same block spends the
	// output; only live inserts are committed.
	live bool
}

// blockStage is the virtual view the strict ApplyBlock replays a block
// against before any mutation touches the set.
type blockStage struct {
	// spentBase collects consumed pre-existing UTXOs in consumption order
	// (undo.Spent, and the removals to commit); removedSet is its membership
	// view. removed counts every successful removal, staged spends included
	// (the stats figure).
	spentBase  []UTXO
	removedSet map[btc.OutPoint]bool
	removed    int
	// inserts collects every successful staged insertion, in order.
	inserts []stagedInsert
	// liveIdx maps a live staged outpoint to its index in inserts.
	liveIdx map[btc.OutPoint]int

	bytesInserted int
}

// stageBlock replays the block's transactions in order against the staged
// view, stopping at the first failure. The set itself is never touched.
func (s *Set) stageBlock(block *btc.Block) (*blockStage, error) {
	nIn, nOut := 0, 0
	for _, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			nIn += len(tx.Inputs)
		}
		nOut += len(tx.Outputs)
	}
	st := &blockStage{
		spentBase:  make([]UTXO, 0, nIn),
		removedSet: make(map[btc.OutPoint]bool, nIn),
		inserts:    make([]stagedInsert, 0, nOut),
		liveIdx:    make(map[btc.OutPoint]int, nOut),
	}
	txids := block.TxIDs()
	for ti, tx := range block.Transactions {
		if !tx.IsCoinbase() {
			for i := range tx.Inputs {
				op := tx.Inputs[i].PreviousOutPoint
				if idx, ok := st.liveIdx[op]; ok {
					// Spends an output created earlier in this block: the
					// pair nets out and never reaches the undo data.
					st.inserts[idx].live = false
					delete(st.liveIdx, op)
					st.removed++
					continue
				}
				if e := s.table.get(&op); e != nil && !st.removedSet[op] {
					st.removedSet[op] = true
					st.spentBase = append(st.spentBase, s.utxoOf(e))
					st.removed++
					continue
				}
				return nil, fmt.Errorf("%w: %s", ErrMissingOutput, op)
			}
		}
		txid := txids[ti]
		for vout := range tx.Outputs {
			op := btc.OutPoint{TxID: txid, Vout: uint32(vout)}
			out := tx.Outputs[vout]
			inBase := s.table.get(&op) != nil
			_, inStaged := st.liveIdx[op]
			if (inBase && !st.removedSet[op]) || inStaged {
				return nil, fmt.Errorf("utxo: duplicate outpoint %s", op)
			}
			st.liveIdx[op] = len(st.inserts)
			st.inserts = append(st.inserts, stagedInsert{op: op, out: out, live: true})
			st.bytesInserted += len(out.PkScript) + 8
		}
	}
	return st, nil
}

// UnapplyBlock reverses a previous ApplyBlock using its undo data: the
// surviving creations are removed, then the pre-existing spends restored.
// In-block created-and-spent pairs were netted out of the undo, so every
// Created outpoint is present and every Spent entry re-adds cleanly.
func (s *Set) UnapplyBlock(undo *BlockUndo) error {
	for i := len(undo.Created) - 1; i >= 0; i-- {
		if _, err := s.Remove(undo.Created[i]); err != nil {
			return fmt.Errorf("utxo: unapply remove: %w", err)
		}
	}
	for i := len(undo.Spent) - 1; i >= 0; i-- {
		u := undo.Spent[i]
		if err := s.Add(u.OutPoint, btc.TxOut{Value: u.Value, PkScript: u.PkScript}, u.Height); err != nil {
			return fmt.Errorf("utxo: unapply restore: %w", err)
		}
	}
	return nil
}

// Balance returns the total unspent value locked to an address key: the
// bucket's running total, maintained on Add/Remove — O(1), no bucket walk.
func (s *Set) Balance(addressKey string) int64 {
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
func (s *Set) AddressCount() int { return len(s.byAddress) }

// ForEach visits every UTXO in unspecified order; visit returning false
// stops the walk.
func (s *Set) ForEach(visit func(UTXO) bool) {
	s.table.each(func(e *tableEntry) bool { return visit(s.utxoOf(e)) })
}
