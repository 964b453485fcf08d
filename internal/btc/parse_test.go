package btc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

// randomTestBlock builds a block with a mix of coinbase-like and spending
// transactions, random script lengths (including empty), and random counts.
func randomTestBlock(rng *rand.Rand) *Block {
	b := &Block{Header: BlockHeader{
		Version:   uint32(rng.Int31()),
		Timestamp: uint32(rng.Int31()),
		Bits:      uint32(rng.Int31()),
		Nonce:     uint32(rng.Int31()),
	}}
	rng.Read(b.Header.PrevBlock[:])
	rng.Read(b.Header.MerkleRoot[:])
	for t := rng.Intn(6); t >= 0; t-- {
		tx := &Transaction{Version: uint32(rng.Intn(3)), LockTime: uint32(rng.Intn(1000))}
		for i := rng.Intn(4); i >= 0; i-- {
			var in TxIn
			rng.Read(in.PreviousOutPoint.TxID[:])
			in.PreviousOutPoint.Vout = uint32(rng.Intn(5))
			in.SignatureScript = make([]byte, rng.Intn(120))
			rng.Read(in.SignatureScript)
			in.Sequence = uint32(rng.Int31())
			tx.Inputs = append(tx.Inputs, in)
		}
		for i := rng.Intn(4); i >= 0; i-- {
			script := make([]byte, rng.Intn(40))
			rng.Read(script)
			tx.Outputs = append(tx.Outputs, TxOut{Value: int64(rng.Intn(100_000)), PkScript: script})
		}
		b.Transactions = append(b.Transactions, tx)
	}
	return b
}

// nonCanonicalVarints returns data with the canonical varint at off re-encoded
// in every longer CompactSize form — same value, bytes no encoder writes.
func nonCanonicalVarints(data []byte, off int) [][]byte {
	c := &cursor{data: data, off: off}
	v, err := c.varint()
	if err != nil {
		return nil
	}
	var out [][]byte
	for _, form := range []struct {
		prefix byte
		size   int
		max    uint64
	}{{0xfd, 2, 0xfc}, {0xfe, 4, 0xffff}, {0xff, 8, 0xffffffff}} {
		if v > form.max {
			continue
		}
		var le [8]byte
		binary.LittleEndian.PutUint64(le[:], v)
		mut := append(bytes.Clone(data[:off]), form.prefix)
		mut = append(mut, le[:form.size]...)
		out = append(out, append(mut, data[c.off:]...))
	}
	return out
}

// checkRejectsDamage asserts that no neighbour of an accepted encoding is
// accepted: every truncation, a trailing byte, and every non-canonical form of
// the count varint at varintOff.
func checkRejectsDamage(t *testing.T, what string, data []byte, varintOff int, parse func([]byte) error) {
	t.Helper()
	for cut := 0; cut < len(data); cut += 1 + len(data)/512 {
		if parse(data[:cut]) == nil {
			t.Fatalf("%s: truncation to %d of %d bytes accepted", what, cut, len(data))
		}
	}
	if parse(append(bytes.Clone(data), 0x00)) == nil {
		t.Fatalf("%s: trailing byte accepted", what)
	}
	for i, mut := range nonCanonicalVarints(data, varintOff) {
		if parse(mut) == nil {
			t.Fatalf("%s: non-canonical count varint (form %d) accepted", what, i)
		}
	}
}

// checkTxDecode holds ParseTransaction to its oracle, the append encoder: an
// accepted input re-encodes to the bytes it was parsed from (so its TxID is
// the hash of those bytes), the result does not alias the argument, and no
// damaged neighbour is accepted. It reports whether data was accepted.
func checkTxDecode(t *testing.T, data []byte) bool {
	t.Helper()
	arg := bytes.Clone(data)
	tx, err := ParseTransaction(arg)
	if err != nil {
		return false
	}
	for i := range arg {
		arg[i] ^= 0xff
	}
	if !bytes.Equal(tx.Bytes(), data) {
		t.Fatalf("transaction re-serializes to different bytes (%d vs %d)", len(tx.Bytes()), len(data))
	}
	if tx.TxID() != DoubleSHA256(data) {
		t.Fatal("TxID is not the hash of the parsed bytes")
	}
	checkRejectsDamage(t, "ParseTransaction", data, 4, func(b []byte) error {
		_, err := ParseTransaction(b)
		return err
	})
	return true
}

// checkBlockDecode is checkTxDecode for the block decoder, through both entry
// points: ParseBlockFast (aliases its argument) and ParseBlock (must not). The
// txid table sealed off the wire spans must equal DoubleSHA256 of each
// transaction's re-serialization, and every transaction an accepted block
// carries goes through checkTxDecode on its own.
func checkBlockDecode(t *testing.T, data []byte) bool {
	t.Helper()
	fast, errFast := ParseBlockFast(data)
	arg := bytes.Clone(data)
	copied, errCopy := ParseBlock(arg)
	if (errFast == nil) != (errCopy == nil) {
		t.Fatalf("entry points disagree: ParseBlockFast=%v ParseBlock=%v", errFast, errCopy)
	}
	if errFast != nil {
		return false
	}
	for i := range arg {
		arg[i] ^= 0xff
	}
	for name, blk := range map[string]*Block{"ParseBlockFast": fast, "ParseBlock": copied} {
		if !bytes.Equal(serialized(blk), data) {
			t.Fatalf("%s: block re-serializes to different bytes", name)
		}
		if !bytes.Equal(blk.Bytes(), data) {
			t.Fatalf("%s: Bytes is not the encoding the block was parsed from", name)
		}
		ids := blk.TxIDs()
		if len(ids) != len(blk.Transactions) {
			t.Fatalf("%s: %d txids for %d transactions", name, len(ids), len(blk.Transactions))
		}
		for i, tx := range blk.Transactions {
			if ids[i] != DoubleSHA256(tx.Bytes()) {
				t.Fatalf("%s: sealed txid %d is not the hash of the transaction's serialization", name, i)
			}
		}
	}
	if fast.MerkleRoot() != copied.MerkleRoot() {
		t.Fatal("merkle roots differ between entry points")
	}
	checkRejectsDamage(t, "ParseBlockFast", data, BlockHeaderSize, func(b []byte) error {
		_, err := ParseBlockFast(b)
		return err
	})
	for i, tx := range fast.Transactions {
		if !checkTxDecode(t, tx.Bytes()) {
			t.Fatalf("transaction %d of an accepted block rejected on its own", i)
		}
	}
	return true
}

// serialized runs the append encoder, never returning the bytes a block was
// parsed from: the oracle the decoder is held to.
func serialized(b *Block) []byte { return b.AppendTo(nil) }

// TestParsedBlockBytes: a parsed block hands back the bytes it was parsed
// from — the same memory, capped so an append cannot write past the block —
// until its header changes; from then on Bytes serializes what it holds.
func TestParsedBlockBytes(t *testing.T) {
	wire := randomTestBlock(rand.New(rand.NewSource(11))).Bytes()
	buf := append(bytes.Clone(wire), 0xEE, 0xEE) // the block sits inside a longer buffer
	blk, err := ParseBlockFast(buf[:len(wire)])
	if err != nil {
		t.Fatal(err)
	}
	got := blk.Bytes()
	if &got[0] != &buf[0] || len(got) != len(wire) {
		t.Fatal("Bytes of an unchanged parsed block is not the parsed encoding")
	}
	_ = append(got, 0x00)
	if buf[len(wire)] != 0xEE {
		t.Fatal("an append to Bytes wrote into the buffer past the block")
	}
	blk.Header.Nonce++
	if got := blk.Bytes(); !bytes.Equal(got, serialized(blk)) || bytes.Equal(got, wire) {
		t.Fatal("Bytes after a header change is not the block's serialization")
	}
	blk.Header.Nonce--
	if &blk.Bytes()[0] != &buf[0] {
		t.Fatal("restoring the parsed header did not restore the parsed encoding")
	}
}

// TestParseBlockRoundTrip runs the decoder's oracle over 200 seeded blocks
// (the unit-test half of FuzzParseBlock).
func TestParseBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 200; iter++ {
		if !checkBlockDecode(t, randomTestBlock(rng).Bytes()) {
			t.Fatalf("iter %d: encoder output rejected", iter)
		}
	}
}

// FuzzParseBlock lets the fuzzer look for an accepted input the encoder
// would not have written, or a sealed txid that is not the transaction's hash
// — through the block decoder and, for every transaction it finds, through
// ParseTransaction (send_transaction's and the adapter's entry point).
func FuzzParseBlock(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 4; i++ {
		wire := randomTestBlock(rng).Bytes()
		f.Add(wire)
		f.Add(wire[:len(wire)/2])
		for _, mut := range nonCanonicalVarints(wire, BlockHeaderSize) {
			f.Add(mut)
		}
	}
	f.Add(append(randomTestBlock(rng).Bytes(), 0x00))
	f.Add(randomTestBlock(rng).Transactions[0].Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBlockDecode(t, data)
		checkTxDecode(t, data)
	})
}

// TestParseBlockFastRejectsNonCanonicalVarint pins the canonical-form
// enforcement on a hand-built case: a 0xfd-prefixed count below 0xfd must be
// rejected through both entry points (span hashes would otherwise diverge
// from re-serialization hashes).
func TestParseBlockFastRejectsNonCanonicalVarint(t *testing.T) {
	blk := randomTestBlock(rand.New(rand.NewSource(7)))
	wire := blk.Bytes()
	// The tx count varint sits right after the 80-byte header and is a
	// single byte for small blocks; widen it to a non-canonical 0xfd form.
	n := wire[BlockHeaderSize]
	mut := append([]byte(nil), wire[:BlockHeaderSize]...)
	mut = append(mut, 0xfd, n, 0x00)
	mut = append(mut, wire[BlockHeaderSize+1:]...)
	if _, err := ParseBlock(mut); err == nil {
		t.Fatal("ParseBlock accepted a non-canonical varint")
	}
	if _, err := ParseBlockFast(mut); err == nil {
		t.Fatal("ParseBlockFast accepted a non-canonical varint")
	}
}

// TestBlockMemoRaceSafety is the -race regression for the TxIDs/MerkleRoot
// memoization: sealed blocks are read by concurrent query-fleet replicas
// and pipeline workers, so first-use memoization from many goroutines must
// be race-free and agree on the value.
func TestBlockMemoRaceSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 20; iter++ {
		blk := randomTestBlock(rng)
		want := blk.Bytes() // serialization does not touch the memos
		ref, err := ParseBlock(want)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs := ref.TxIDs()
		wantRoot := ref.MerkleRoot()

		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ids := blk.TxIDs()
				if len(ids) != len(wantIDs) {
					t.Errorf("txid count %d != %d", len(ids), len(wantIDs))
					return
				}
				for i := range ids {
					if ids[i] != wantIDs[i] {
						t.Errorf("txid %d diverged under concurrency", i)
						return
					}
				}
				if blk.MerkleRoot() != wantRoot {
					t.Error("merkle root diverged under concurrency")
				}
			}()
		}
		wg.Wait()
	}
}
