package btc

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func randomBlock(rng *rand.Rand, nTx int) *Block {
	b := &Block{
		Header: BlockHeader{
			Version:   1,
			Timestamp: uint32(rng.Int31()),
			Bits:      regtestPowBits,
			Nonce:     rng.Uint32(),
		},
	}
	rng.Read(b.Header.PrevBlock[:])
	for i := 0; i < nTx; i++ {
		b.Transactions = append(b.Transactions, randomTx(rng))
	}
	b.Header.MerkleRoot = b.MerkleRoot()
	return b
}

func TestBlockHeaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	b := randomBlock(rng, 1)
	enc := b.Header.AppendTo(nil)
	if len(enc) != BlockHeaderSize {
		t.Fatalf("header size %d, want %d", len(enc), BlockHeaderSize)
	}
	got, err := ParseBlockHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got != b.Header {
		t.Fatalf("header changed across round trip: %+v, want %+v", got, b.Header)
	}
	if _, err := ParseBlockHeader(enc[:79]); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, nTx := range []int{1, 2, 3, 7, 20} {
		b := randomBlock(rng, nTx)
		enc := b.Bytes()
		if len(enc) != b.SerializedSize() {
			t.Fatalf("SerializedSize %d != actual %d", b.SerializedSize(), len(enc))
		}
		got, err := ParseBlock(enc)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if !bytes.Equal(got.Bytes(), enc) {
			t.Fatal("round trip mismatch")
		}
		if got.BlockHash() != b.BlockHash() {
			t.Fatal("block hash changed")
		}
	}
}

func TestParseBlockRejectsTrailing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	b := randomBlock(rng, 2)
	if _, err := ParseBlock(append(b.Bytes(), 0xAA)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestMerkleRootSingleTx(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := randomBlock(rng, 1)
	if b.MerkleRoot() != b.Transactions[0].TxID() {
		t.Fatal("single-tx merkle root must equal the txid")
	}
}

func TestMerkleRootOddDuplication(t *testing.T) {
	// With 3 leaves, Bitcoin duplicates the 3rd: root = H(H(1,2), H(3,3)).
	h1 := DoubleSHA256([]byte("a"))
	h2 := DoubleSHA256([]byte("b"))
	h3 := DoubleSHA256([]byte("c"))
	left := hashPair(h1, h2)
	right := hashPair(h3, h3)
	want := hashPair(left, right)
	got := MerkleRootFromHashes([]Hash{h1, h2, h3})
	if got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// referenceMerkleRoot is the textbook construction straight over crypto/sha256:
// a fresh level per round, an odd level extended by its last node.
func referenceMerkleRoot(level []Hash) Hash {
	for len(level) > 1 {
		if len(level)%2 == 1 {
			level = append(level[:len(level):len(level)], level[len(level)-1])
		}
		var next []Hash
		for i := 0; i < len(level); i += 2 {
			first := sha256.Sum256(append(level[i][:], level[i+1][:]...))
			next = append(next, sha256.Sum256(first[:]))
		}
		level = next
	}
	return level[0]
}

// TestMerkleRootInPlace holds the in-place level walk to the textbook
// construction at every size up to 70 leaves and at 500 (a benchmark block),
// leaving its argument untouched, and hashPair to SHA-256 over the joined
// pair.
func TestMerkleRootInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sizes := []int{500}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		hashes := make([]Hash, n)
		for i := range hashes {
			rng.Read(hashes[i][:])
		}
		kept := slices.Clone(hashes)
		if got, want := MerkleRootFromHashes(hashes), referenceMerkleRoot(kept); got != want {
			t.Fatalf("%d leaves: root %s, want %s", n, got, want)
		}
		if !slices.Equal(hashes, kept) {
			t.Fatalf("%d leaves: MerkleRootFromHashes wrote into its argument", n)
		}
	}
	var a, b Hash
	rng.Read(a[:])
	rng.Read(b[:])
	first := sha256.Sum256(append(a[:], b[:]...))
	if got, want := hashPair(a, b), Hash(sha256.Sum256(first[:])); got != want {
		t.Fatalf("hashPair: %s, want %s", got, want)
	}
}

// TestMerkleRootAllocations: a root costs the one copy of its leaves, and a
// node hashed through hashPair costs nothing.
func TestMerkleRootAllocations(t *testing.T) {
	hashes := make([]Hash, 500)
	for i := range hashes {
		hashes[i][0], hashes[i][1] = byte(i), byte(i>>8)
	}
	if got := testing.AllocsPerRun(20, func() { MerkleRootFromHashes(hashes) }); got != 1 {
		t.Fatalf("MerkleRootFromHashes over 500 leaves: %.1f allocations, want 1", got)
	}
	a, b := hashes[0], hashes[1]
	if got := testing.AllocsPerRun(20, func() { hashPair(a, b) }); got != 0 {
		t.Fatalf("hashPair: %.1f allocations, want 0", got)
	}
}

func TestMerkleRootEmpty(t *testing.T) {
	if MerkleRootFromHashes(nil) != ZeroHash {
		t.Fatal("empty merkle root must be zero")
	}
}

func TestCompactToBigRoundTrip(t *testing.T) {
	cases := []uint32{0x1d00ffff, 0x1b0404cb, regtestPowBits, simPowBits, 0x03123456}
	for _, c := range cases {
		big := CompactToBig(c)
		if got := BigToCompact(big); got != c {
			t.Errorf("compact 0x%08x: round trip gave 0x%08x", c, got)
		}
	}
}

func TestCompactToBigKnownValue(t *testing.T) {
	// 0x1b0404cb is a classic example: target = 0x0404cb * 2^(8*(0x1b-3)).
	target := CompactToBig(0x1b0404cb)
	want, _ := new(big.Int).SetString("404cb000000000000000000000000000000000000000000000000", 16)
	if target.Cmp(want) != 0 {
		t.Fatalf("got %x, want %x", target, want)
	}
}

func TestWorkForBitsMonotone(t *testing.T) {
	// Lower target (harder) must mean more work.
	hard := WorkForBits(0x1b0404cb)
	easy := WorkForBits(regtestPowBits)
	if hard.Cmp(easy) <= 0 {
		t.Fatal("harder target did not yield more work")
	}
	if WorkForBits(0).Sign() != 0 {
		t.Fatal("zero bits must yield zero work")
	}
}

func TestHashMeetsTarget(t *testing.T) {
	// The all-zero hash trivially satisfies any positive target.
	if !HashMeetsTarget(ZeroHash, 0x1d00ffff) {
		t.Fatal("zero hash rejected")
	}
	// An all-0xff hash cannot satisfy a real target.
	var maxHash Hash
	for i := range maxHash {
		maxHash[i] = 0xff
	}
	if HashMeetsTarget(maxHash, 0x1d00ffff) {
		t.Fatal("max hash accepted")
	}
}

// TestMineHeaderFindsLowestNonce: the one proof-of-work search is ascending
// from 0, so the nonce it leaves is the first that meets the target — what
// keeps every fixture's block bytes where the eight hand-written loops it
// replaced put them.
func TestMineHeaderFindsLowestNonce(t *testing.T) {
	h := BlockHeader{Version: 1, Timestamp: 1_600_000_000, Bits: simPowBits, Nonce: 12345}
	if err := MineHeader(&h); err != nil {
		t.Fatal(err)
	}
	if !HashMeetsTarget(h.BlockHash(), h.Bits) {
		t.Fatalf("nonce %d does not meet the target", h.Nonce)
	}
	if h.Nonce == 0 {
		t.Fatal("nonce 0 met simPowBits; pick a header that needs a search")
	}
	for probe := h; probe.Nonce > 0; {
		probe.Nonce--
		if HashMeetsTarget(probe.BlockHash(), probe.Bits) {
			t.Fatalf("nonce %d already met the target, search returned %d", probe.Nonce, h.Nonce)
		}
	}
}

func TestMedianTimePast(t *testing.T) {
	if MedianTimePast(nil) != 0 {
		t.Fatal("empty MTP must be 0")
	}
	if got := MedianTimePast([]uint32{5}); got != 5 {
		t.Fatalf("single: got %d", got)
	}
	if got := MedianTimePast([]uint32{1, 9, 5}); got != 5 {
		t.Fatalf("odd: got %d, want 5", got)
	}
	// Only the last 11 entries count.
	ts := make([]uint32, 0, 20)
	for i := 0; i < 9; i++ {
		ts = append(ts, 1000)
	}
	for i := 0; i < 11; i++ {
		ts = append(ts, uint32(i))
	}
	if got := MedianTimePast(ts); got != 5 {
		t.Fatalf("window: got %d, want 5", got)
	}
}

func TestValidateTimestamp(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	mtp := uint32(1_699_999_000)
	if err := ValidateTimestamp(uint32(now.Unix()), mtp, now); err != nil {
		t.Fatalf("valid timestamp rejected: %v", err)
	}
	if err := ValidateTimestamp(mtp, mtp, now); err == nil {
		t.Fatal("timestamp equal to MTP accepted")
	}
	future := uint32(now.Add(MaxFutureBlockTime + time.Minute).Unix())
	if err := ValidateTimestamp(future, mtp, now); err == nil {
		t.Fatal("far-future timestamp accepted")
	}
}
