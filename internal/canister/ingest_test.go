package canister

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/btcnode"
	"icbtc/internal/ic"
	"icbtc/internal/ingest"
	"icbtc/internal/obs"
)

// chainWire mines a transaction-bearing chain on the rig's node and
// returns the blocks in wire form, root to tip.
func chainWire(t *testing.T, r *rig, n, txs int) ([][]byte, []*btc.Block) {
	t.Helper()
	blocks, err := r.miner.MineChain(n, txs)
	if err != nil {
		t.Fatal(err)
	}
	wire := make([][]byte, 0, len(blocks))
	for _, b := range blocks {
		wire = append(wire, b.Bytes())
	}
	return wire, blocks
}

func snapshotOf(t *testing.T, c *BitcoinCanister) []byte {
	t.Helper()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestSyncWireMatchesSerial: catching up from wire bytes through the
// pipeline must leave the canister byte-identical (full snapshot,
// counters included) to parsing every block and processing them through
// the serial path in one payload — at every worker count and window.
func TestSyncWireMatchesSerial(t *testing.T) {
	r := newRig(t, 3)
	wire, _ := chainWire(t, r, 20, 5)

	serial := New(DefaultConfig(btc.Regtest))
	resp := adapter.Response{}
	for _, w := range wire {
		blk, err := btc.ParseBlock(w)
		if err != nil {
			t.Fatal(err)
		}
		resp.Blocks = append(resp.Blocks, adapter.BlockWithHeader{Block: blk, Header: blk.Header})
	}
	if err := serial.ProcessPayload(r.ctx(), resp); err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, serial)

	for _, cfg := range []ingest.Config{
		{Workers: 1}, {Workers: 2, Window: 2}, {Workers: 4}, {Workers: 8, Window: 3}, {Workers: 8, Window: 32},
	} {
		pipelined := New(DefaultConfig(btc.Regtest))
		stats, err := pipelined.SyncWire(r.ctx(), wire, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Accepted != len(wire) || stats.Rejected != 0 {
			t.Fatalf("workers=%d: accepted %d rejected %d of %d", cfg.Workers, stats.Accepted, stats.Rejected, len(wire))
		}
		if !bytes.Equal(snapshotOf(t, pipelined), want) {
			t.Fatalf("workers=%d window=%d: pipelined state diverged from serial", cfg.Workers, cfg.Window)
		}
	}
}

// hostileChain forges n blocks whose transactions carry everything the
// stable fold tolerates rather than rejects. From height 4 on, block h holds
//
//	a: spends the coinbase of h-3 into three outputs,
//	b: spends a's first output (an in-block chain) and an alien outpoint,
//	c: spends that coinbase again and b's second output (a double spend and
//	   a chain two deep), a:1 of h-1, and a:1 of h-2, which c of h-1 spent,
//
// and every fifth block replays a of four blocks down: a spent input, a
// re-creation of its spent first output, and two duplicates.
func hostileChain(t *testing.T, n int) [][]byte {
	t.Helper()
	params := btc.RegtestParams()
	forge := btcnode.NewForge(params)
	scripts := make([][]byte, 4)
	for i := range scripts {
		_, scripts[i] = testAddr(byte(0x40 + i))
	}
	serial := uint32(0)
	tx := func(ins []btc.OutPoint, outs int) *btc.Transaction {
		serial++
		x := &btc.Transaction{Version: 2, LockTime: serial}
		for _, in := range ins {
			x.Inputs = append(x.Inputs, btc.TxIn{PreviousOutPoint: in})
		}
		for k := 0; k < outs; k++ {
			x.Outputs = append(x.Outputs, btc.TxOut{Value: int64(1000 + serial*10 + uint32(k)), PkScript: scripts[(int(serial)+k)%len(scripts)]})
		}
		return x
	}
	out := func(x *btc.Transaction, vout uint32) btc.OutPoint { return btc.OutPoint{TxID: x.TxID(), Vout: vout} }

	tip := params.GenesisHeader.BlockHash()
	var wire [][]byte
	var coinbases []btc.OutPoint
	as := map[int]*btc.Transaction{}
	for h := 1; h <= n; h++ {
		var txs []*btc.Transaction
		if h >= 4 {
			a := tx([]btc.OutPoint{coinbases[h-4]}, 3)
			alien := btc.OutPoint{TxID: btc.DoubleSHA256([]byte{byte(h)}), Vout: 1}
			b := tx([]btc.OutPoint{out(a, 0), alien}, 2)
			cIns := []btc.OutPoint{coinbases[h-4], out(b, 1)}
			for _, back := range []int{h - 1, h - 2} {
				if prev := as[back]; prev != nil {
					cIns = append(cIns, out(prev, 1))
				}
			}
			as[h] = a
			txs = append(txs, a, b, tx(cIns, 1))
		}
		if h%5 == 0 && as[h-4] != nil {
			txs = append(txs, as[h-4])
		}
		blk, err := forge.Mine(tip, scripts[h%len(scripts)], txs...)
		if err != nil {
			t.Fatal(err)
		}
		tip = blk.BlockHash()
		coinbases = append(coinbases, out(blk.Transactions[0], 0))
		wire = append(wire, blk.Bytes())
	}
	return wire
}

// hostileSnapshotSHA256 is the SHA-256 of the snapshot the 30-block hostile
// chain leaves, recorded when every block's delta was built at attach, with
// owners resolved against the state of that moment. Building deltas only at
// the end of a payload must reproduce these bytes, however the chain is
// split into payloads.
const hostileSnapshotSHA256 = "7e47c8518ba133c0ae4e6a0778e78d8e73fabec5410b6ed1578a4cd89f9ea575"

// TestSyncWireHostileChainMatchesPayloads: catching up through SyncWire on a
// hostile chain — so through FoldSession at every worker count above one —
// must leave the snapshot bytes and metered instructions that delivering it
// one block per ProcessPayload leaves, and both must be the pinned bytes.
// Blocks 26–30 stay unstable to the end of the one SyncWire payload, and
// block 26 spends an output of block 24 that block 25 spent too: the fold of
// 25 removed it from U after 26 attached, and only the removal log still
// knows it.
func TestSyncWireHostileChainMatchesPayloads(t *testing.T) {
	wire := hostileChain(t, 30)
	now := time.Unix(int64(btc.RegtestParams().GenesisHeader.Timestamp), 0).Add(time.Hour)

	serial := New(DefaultConfig(btc.Regtest))
	ctx := ic.NewCallContext(ic.KindUpdate, now)
	for i, w := range wire {
		blk, err := btc.ParseBlock(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := serial.ProcessPayload(ctx, adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: blk, Header: blk.Header}}}); err != nil {
			t.Fatalf("block %d: %v", i+1, err)
		}
	}
	if serial.IngestedBlocks() != len(wire) || serial.AnchorHeight() < 10 || serial.applyErrors == 0 {
		t.Fatalf("ingested %d of %d, anchor %d, %d tolerated errors: the chain is not the hostile one asked for",
			serial.IngestedBlocks(), len(wire), serial.AnchorHeight(), serial.applyErrors)
	}
	want, wantInstr := snapshotOf(t, serial), ctx.Meter.Total()
	if got := fmt.Sprintf("%x", sha256.Sum256(want)); got != hostileSnapshotSHA256 {
		t.Fatalf("one block per payload: snapshot SHA-256 %s, pinned %s", got, hostileSnapshotSHA256)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		can := New(DefaultConfig(btc.Regtest))
		ctx := ic.NewCallContext(ic.KindUpdate, now)
		if _, err := can.SyncWire(ctx, wire, ingest.Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotOf(t, can), want) {
			t.Fatalf("workers=%d: state diverged from one block per payload", workers)
		}
		if got := ctx.Meter.Total(); got != wantInstr {
			t.Fatalf("workers=%d: metered %d instructions, one block per payload %d", workers, got, wantInstr)
		}
	}
}

// TestSyncWireFramesConverge: a multi-block catch-up published to a stream
// must bring a replica that applies its frames to the authority's exact
// state. A block the same payload folds carries only its created column, no
// spent run — nobody reads it — and the frame still encodes and decodes
// round trip.
func TestSyncWireFramesConverge(t *testing.T) {
	wire := hostileChain(t, 30)
	now := time.Unix(int64(btc.RegtestParams().GenesisHeader.Timestamp), 0).Add(time.Hour)
	var keys []string
	for i := 0; i < 4; i++ { // every script the hostile chain pays
		_, script := testAddr(byte(0x40 + i))
		keys = append(keys, btc.ScriptID(script, btc.Regtest))
	}
	spentEntries := func(ev *StreamEvent) int {
		n := 0
		for _, key := range keys {
			n += len(ev.Delta.SpentFor(key))
		}
		return n
	}

	for _, workers := range []int{1, 4} {
		authority := New(DefaultConfig(btc.Regtest))
		var frames [][]byte
		authority.SetStreamSink(func(f *Frame) { frames = append(frames, EncodeFrame(f)) })
		replica := New(DefaultConfig(btc.Regtest))
		foldedInFrame, keptWithSpends := 0, 0
		for _, cut := range [][2]int{{0, 7}, {7, 20}, {20, 30}} {
			ctx := ic.NewCallContext(ic.KindUpdate, now)
			if _, err := authority.SyncWire(ctx, wire[cut[0]:cut[1]], ingest.Config{Workers: workers}); err != nil {
				t.Fatal(err)
			}
			if len(frames) != 1 {
				t.Fatalf("workers=%d blocks %v: %d frames, want 1", workers, cut, len(frames))
			}
			raw := frames[0]
			frames = frames[:0]
			f, err := DecodeFrame(raw)
			if err != nil {
				t.Fatal(err)
			}
			if again := EncodeFrame(f); !bytes.Equal(again, raw) {
				t.Fatalf("workers=%d blocks %v: the frame does not re-encode to its bytes", workers, cut)
			}
			folded := map[btc.Hash]bool{}
			for i := range f.Events {
				if f.Events[i].Kind == EventAnchorAdvanced {
					folded[f.Events[i].Hash] = true
				}
			}
			for i := range f.Events {
				ev := &f.Events[i]
				if ev.Kind != EventBlockAttached {
					continue
				}
				switch n := spentEntries(ev); {
				case folded[ev.Header.BlockHash()] && n != 0:
					t.Fatalf("workers=%d: block %s folded in its own frame carries %d spent entries", workers, ev.Header.BlockHash(), n)
				case folded[ev.Header.BlockHash()]:
					foldedInFrame++
				case n > 0:
					keptWithSpends++
				}
			}
			if err := replica.ApplyFrame(f); err != nil {
				t.Fatalf("workers=%d blocks %v: %v", workers, cut, err)
			}
			if !bytes.Equal(snapshotOf(t, replica), snapshotOf(t, authority)) {
				t.Fatalf("workers=%d blocks %v: replica diverged from the authority", workers, cut)
			}
		}
		if foldedInFrame == 0 || keptWithSpends == 0 {
			t.Fatalf("workers=%d: %d blocks folded in their own frame, %d kept with spends: the cuts test nothing",
				workers, foldedInFrame, keptWithSpends)
		}
	}
}

// TestSyncWireLeavesNoPendingState: the removal log and the pending-delta
// list live for one payload. A log that kept its backing array between
// payloads would sit in the heap of every canister, replicas included.
func TestSyncWireLeavesNoPendingState(t *testing.T) {
	wire := hostileChain(t, 30)
	now := time.Unix(int64(btc.RegtestParams().GenesisHeader.Timestamp), 0).Add(time.Hour)
	c := New(DefaultConfig(btc.Regtest))
	check := func(after string) {
		t.Helper()
		if c.pending != nil {
			t.Fatalf("after %s: pending list holds %d/%d entries", after, len(c.pending), cap(c.pending))
		}
		if !reflect.ValueOf(c.stable).Elem().FieldByName("removed").IsNil() {
			t.Fatalf("after %s: the stable set's removal log is still open", after)
		}
	}
	ctx := ic.NewCallContext(ic.KindUpdate, now)
	if _, err := c.SyncWire(ctx, wire[:20], ingest.Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	check("SyncWire")
	for _, w := range wire[20:] {
		blk, err := btc.ParseBlock(w)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ProcessPayload(ctx, adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: blk, Header: blk.Header}}}); err != nil {
			t.Fatal(err)
		}
		check("ProcessPayload")
	}
}

// TestSyncWireRejectsLikeSerial: invalid entries — undecodable bytes, a
// tampered merkle root, an orphan — must be rejected without disturbing
// the rest of the batch, leaving the same state and reject counters the
// serial path reports.
func TestSyncWireRejectsLikeSerial(t *testing.T) {
	r := newRig(t, 5)
	wire, blocks := chainWire(t, r, 8, 3)

	// Tamper with block 3's merkle root (re-assembled, not copied), drop
	// block 5 (making 6 and 7 orphans), and append garbage.
	tampered := &btc.Block{Header: blocks[3].Header, Transactions: blocks[3].Transactions}
	tampered.Header.MerkleRoot = btc.DoubleSHA256([]byte("wrong"))
	batch := [][]byte{wire[0], wire[1], wire[2], tampered.Bytes(), wire[4][:40], wire[6], wire[7]}

	serial := New(DefaultConfig(btc.Regtest))
	resp := adapter.Response{}
	for _, w := range batch {
		blk, err := btc.ParseBlock(w)
		if err != nil {
			continue // the serial payload cannot carry undecodable bytes
		}
		resp.Blocks = append(resp.Blocks, adapter.BlockWithHeader{Block: blk, Header: blk.Header})
	}
	if err := serial.ProcessPayload(r.ctx(), resp); err != nil {
		t.Fatal(err)
	}

	pipelined := New(DefaultConfig(btc.Regtest))
	stats, err := pipelined.SyncWire(r.ctx(), batch, ingest.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != 3 {
		t.Fatalf("accepted %d, want 3 (blocks 0-2)", stats.Accepted)
	}
	// The truncated entry is a parse reject the serial payload never saw;
	// apart from that counter the states must agree.
	if stats.Rejected != 4 { // tampered, truncated, two orphans
		t.Fatalf("rejected %d, want 4", stats.Rejected)
	}
	if pipelined.TipHeight() != serial.TipHeight() || pipelined.IngestedBlocks() != serial.IngestedBlocks() {
		t.Fatalf("pipelined tip/ingested %d/%d, serial %d/%d",
			pipelined.TipHeight(), pipelined.IngestedBlocks(), serial.TipHeight(), serial.IngestedBlocks())
	}
}

// TestProcessPayloadPipelinedMatchesSerial drives two canisters payload by
// payload — blocks, upcoming headers, duplicates — asserting byte-equal
// snapshots after every payload.
func TestProcessPayloadPipelinedMatchesSerial(t *testing.T) {
	r := newRig(t, 7)
	_, blocks := chainWire(t, r, 12, 4)

	serial := New(DefaultConfig(btc.Regtest))
	pipelined := New(DefaultConfig(btc.Regtest))
	deliver := func(resp adapter.Response, workers int) {
		t.Helper()
		if err := serial.ProcessPayload(r.ctx(), resp); err != nil {
			t.Fatal(err)
		}
		if err := pipelined.ProcessPayloadPipelined(r.ctx(), resp, ingest.Config{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotOf(t, serial), snapshotOf(t, pipelined)) {
			t.Fatalf("workers=%d: states diverged", workers)
		}
	}

	// Header-first for the first half, then the blocks (some repeated),
	// then the rest in one batch.
	var hdrs []btc.BlockHeader
	for _, b := range blocks[:6] {
		hdrs = append(hdrs, b.Header)
	}
	deliver(adapter.Response{Next: hdrs}, 2)
	for i, b := range blocks[:6] {
		resp := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: b, Header: b.Header}}}
		if i%2 == 0 { // duplicate delivery is harmless
			resp.Blocks = append(resp.Blocks, resp.Blocks[0])
		}
		deliver(resp, 1+i%4)
	}
	var rest []adapter.BlockWithHeader
	for _, b := range blocks[6:] {
		rest = append(rest, adapter.BlockWithHeader{Block: b, Header: b.Header})
	}
	deliver(adapter.Response{Blocks: rest}, 8)
}

// TestRestoreSnapshotParallel: the sharded restore must reproduce the
// serial restore exactly — same re-snapshot bytes — at every worker count.
func TestRestoreSnapshotParallel(t *testing.T) {
	r := newRig(t, 11)
	wire, _ := chainWire(t, r, 15, 6)
	can := New(DefaultConfig(btc.Regtest))
	if _, err := can.SyncWire(r.ctx(), wire, ingest.Config{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, can)

	serialRestore, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshotOf(t, serialRestore)
	if !bytes.Equal(want, snap) {
		t.Fatal("serial restore is not byte-stable")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		restored, err := RestoreSnapshotParallel(snap, ingest.Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(snapshotOf(t, restored), want) {
			t.Fatalf("workers=%d: parallel restore diverged", workers)
		}
	}
}

// TestFramePrepareEquivalence: applying prepared frames must produce the
// same replica state as applying raw frames, and a corrupt frame must
// surface the same error either way.
func TestFramePrepareEquivalence(t *testing.T) {
	r := newRig(t, 13)
	_, blocks := chainWire(t, r, 10, 4)

	authority := New(DefaultConfig(btc.Regtest))
	var frames [][]byte
	authority.SetStreamSink(func(f *Frame) { frames = append(frames, EncodeFrame(f)) })
	for _, b := range blocks {
		resp := adapter.Response{Blocks: []adapter.BlockWithHeader{{Block: b, Header: b.Header}}}
		if err := authority.ProcessPayload(r.ctx(), resp); err != nil {
			t.Fatal(err)
		}
	}
	if len(frames) == 0 {
		t.Fatal("no frames published")
	}

	plain := New(DefaultConfig(btc.Regtest))
	prepared := New(DefaultConfig(btc.Regtest))
	for i, raw := range frames {
		fa, err := DecodeFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := DecodeFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		fb.Prepare(ingest.Config{Workers: 4})
		if err := plain.ApplyFrame(fa); err != nil {
			t.Fatal(err)
		}
		if err := prepared.ApplyFrame(fb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapshotOf(t, plain), snapshotOf(t, prepared)) {
			t.Fatalf("frame %d: prepared apply diverged", i)
		}
	}
	if !bytes.Equal(snapshotOf(t, plain), snapshotOf(t, authority)) {
		t.Fatal("replica did not converge to the authority")
	}
}

// TestIngestEntryPointsRecordSameMetrics: every write-path entry point runs
// the one ingest skeleton, so the same batch — three valid blocks, one with
// a tampered merkle root, one orphan, one unattachable upcoming header —
// must leave the same payload, ingest and reject metrics whichever way it
// came in (SyncWire carries blocks only, so it sees no header to reject).
func TestIngestEntryPointsRecordSameMetrics(t *testing.T) {
	r := newRig(t, 9)
	_, blocks := chainWire(t, r, 6, 3)
	tampered := &btc.Block{Header: blocks[3].Header, Transactions: blocks[3].Transactions}
	tampered.Header.MerkleRoot = btc.DoubleSHA256([]byte("wrong"))
	batch := []*btc.Block{blocks[0], blocks[1], blocks[2], tampered, blocks[5]} // 5's parent never arrives
	badNext := blocks[5].Header
	badNext.PrevBlock = btc.DoubleSHA256([]byte("nowhere"))

	resp := adapter.Response{Next: []btc.BlockHeader{badNext}}
	var wire [][]byte
	for _, b := range batch {
		resp.Blocks = append(resp.Blocks, adapter.BlockWithHeader{Block: b, Header: b.Header})
		wire = append(wire, b.Bytes())
	}

	for _, ep := range []struct {
		name            string
		headersRejected uint64
		run             func(c *BitcoinCanister) error
	}{
		{"ProcessPayload", 1, func(c *BitcoinCanister) error { return c.ProcessPayload(r.ctx(), resp) }},
		{"ProcessPayloadPipelined", 1, func(c *BitcoinCanister) error {
			return c.ProcessPayloadPipelined(r.ctx(), resp, ingest.Config{Workers: 3})
		}},
		{"SyncWire", 0, func(c *BitcoinCanister) error {
			_, err := c.SyncWire(r.ctx(), wire, ingest.Config{Workers: 3})
			return err
		}},
	} {
		c := New(DefaultConfig(btc.Regtest))
		if err := ep.run(c); err != nil {
			t.Fatalf("%s: %v", ep.name, err)
		}
		reg := c.Metrics()
		for _, want := range []struct {
			metric string
			value  uint64
		}{
			{"canister_payloads_total", 1},
			{"canister_blocks_ingested_total", 3},
			{"canister_blocks_rejected_total", 2},
			{"canister_headers_rejected_total", ep.headersRejected},
		} {
			if got := reg.Counter(want.metric).Value(); got != want.value {
				t.Errorf("%s: %s = %d, want %d", ep.name, want.metric, got, want.value)
			}
		}
		if got := reg.Histogram("canister_payload_duration_ns", obs.DurationBuckets).Count(); got != 1 {
			t.Errorf("%s: %d canister_payload_duration_ns observations, want 1", ep.name, got)
		}
	}
}
