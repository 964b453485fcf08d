package tecdsa

import (
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"icbtc/internal/secp256k1"
)

func TestShareReconstructRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	secret := big.NewInt(123456789)
	shares, err := shareSecret(secret, 7, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 7 {
		t.Fatalf("shares %d", len(shares))
	}
	got, err := Reconstruct(shares[:3], 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(secret) != 0 {
		t.Fatalf("reconstructed %v", got)
	}
	// A different subset must give the same secret.
	got2, err := Reconstruct([]Share{shares[6], shares[1], shares[4]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Cmp(secret) != 0 {
		t.Fatal("subset reconstruction differs")
	}
}

func TestReconstructErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shares, _ := shareSecret(big.NewInt(5), 4, 2, rng)
	if _, err := Reconstruct(shares[:2], 2); err == nil {
		t.Fatal("too few shares accepted")
	}
	dup := []Share{shares[0], shares[0], shares[1]}
	if _, err := Reconstruct(dup, 2); err == nil {
		t.Fatal("duplicate indices accepted")
	}
	bad := []Share{{Index: 0, Value: big.NewInt(1)}, shares[0], shares[1]}
	if _, err := Reconstruct(bad, 2); err == nil {
		t.Fatal("index 0 accepted")
	}
}

func TestShareSecretParams(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := shareSecret(big.NewInt(1), 2, 2, rng); err == nil {
		t.Fatal("n < t+1 accepted")
	}
	if _, err := shareSecret(big.NewInt(1), 1, -1, rng); err == nil {
		t.Fatal("negative t accepted")
	}
}

func TestQuickShareReconstruct(t *testing.T) {
	f := func(seed int64, secretRaw int64) bool {
		rng := rand.New(rand.NewSource(seed))
		secret := new(big.Int).SetInt64(secretRaw)
		secret.Mod(secret, secp256k1.N())
		shares, err := shareSecret(secret, 9, 3, rng)
		if err != nil {
			return false
		}
		// Random subset of size 4.
		perm := rand.New(rand.NewSource(seed + 1)).Perm(9)[:4]
		subset := make([]Share, 4)
		for i, p := range perm {
			subset[i] = shares[p]
		}
		got, err := Reconstruct(subset, 3)
		return err == nil && got.Cmp(secret) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCommitteeDKG(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// n=13, t=4 matches the paper's subnet parameters (n = 3f+1, f = 4).
	c, err := NewCommittee(13, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 13 || c.T() != 4 {
		t.Fatal("params")
	}
	// Reconstructing the key from t+1 shares must match the public key.
	shares := make([]Share, 5)
	for i := range shares {
		shares[i] = c.parties[i].keyShare
	}
	key, err := Reconstruct(shares, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !secp256k1.ScalarBaseMult(key).Equal(c.PublicKey().Point) {
		t.Fatal("reconstructed key does not match public key")
	}
}

func TestCommitteeParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := NewCommittee(4, 2, rng); err == nil {
		t.Fatal("n < 2t+1 accepted (product opening would be impossible)")
	}
	if _, err := NewCommittee(0, 0, rng); err == nil {
		t.Fatal("empty committee accepted")
	}
}

func TestThresholdECDSA(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c, err := NewCommittee(7, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		digest := sha256.Sum256([]byte{byte(i), 0xAB})
		sig, err := c.Sign(digest[:])
		if err != nil {
			t.Fatalf("sign %d: %v", i, err)
		}
		if !sig.Verify(digest[:], c.PublicKey()) {
			t.Fatal("threshold signature invalid")
		}
		// Must be low-S (Bitcoin standardness).
		half := new(big.Int).Rsh(secp256k1.N(), 1)
		if sig.S.Cmp(half) > 0 {
			t.Fatal("signature not low-S")
		}
		// DER round trip (what goes into a Bitcoin transaction).
		if _, err := secp256k1.ParseDERSignature(sig.SerializeDER()); err != nil {
			t.Fatalf("DER: %v", err)
		}
	}
}

func TestThresholdECDSARejectsBadDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c, _ := NewCommittee(4, 1, rng)
	if _, err := c.Sign([]byte("short")); err == nil {
		t.Fatal("bad digest accepted")
	}
	if _, err := c.SignSchnorr([]byte("short")); err == nil {
		t.Fatal("bad schnorr message accepted")
	}
}

func TestThresholdSchnorr(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c, err := NewCommittee(7, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		msg := sha256.Sum256([]byte{0xCD, byte(i)})
		sig, err := c.SignSchnorr(msg[:])
		if err != nil {
			t.Fatalf("schnorr sign %d: %v", i, err)
		}
		px := new(big.Int).SetBytes(c.PublicKey().XOnlyPubKey())
		if !secp256k1.SchnorrVerify(sig, msg[:], px) {
			t.Fatal("threshold schnorr invalid")
		}
		// Wrong message must fail.
		other := sha256.Sum256([]byte{0xEF, byte(i)})
		if secp256k1.SchnorrVerify(sig, other[:], px) {
			t.Fatal("schnorr verified wrong message")
		}
	}
}

func TestSingleShareRevealsNothingStructurally(t *testing.T) {
	// With t=2, two shares must not determine the key: reconstructing from
	// 2 shares with an assumed degree of 1 must give a different key than
	// the real one (overwhelmingly).
	rng := rand.New(rand.NewSource(11))
	c, _ := NewCommittee(7, 2, rng)
	shares := []Share{c.parties[0].keyShare, c.parties[1].keyShare}
	guess, err := Reconstruct(shares, 1)
	if err != nil {
		t.Fatal(err)
	}
	if secp256k1.ScalarBaseMult(guess).Equal(c.PublicKey().Point) {
		t.Fatal("2 shares at t=2 determined the key")
	}
}

func TestThresholdSignaturesAreIndependentAcrossMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c, _ := NewCommittee(4, 1, rng)
	d1 := sha256.Sum256([]byte("m1"))
	d2 := sha256.Sum256([]byte("m2"))
	s1, err := c.Sign(d1[:])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.Sign(d2[:])
	if err != nil {
		t.Fatal(err)
	}
	if s1.R.Cmp(s2.R) == 0 {
		t.Fatal("nonce reuse across messages")
	}
}
