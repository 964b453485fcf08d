package secp256k1

import (
	"bytes"
	"crypto/sha256"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeneratorOnCurve(t *testing.T) {
	g := Generator()
	if !g.OnCurve() {
		t.Fatal("generator not on curve")
	}
}

func TestGroupOrder(t *testing.T) {
	// n*G must be the point at infinity.
	if pt := ScalarBaseMult(N()); !pt.Infinity() {
		t.Fatalf("n*G = %v, want infinity", pt)
	}
	// (n-1)*G + G must be infinity too.
	nm1 := new(big.Int).Sub(N(), big.NewInt(1))
	if pt := Add(ScalarBaseMult(nm1), Generator()); !pt.Infinity() {
		t.Fatalf("(n-1)*G + G = %v, want infinity", pt)
	}
}

func TestKnownScalarMultVectors(t *testing.T) {
	// Well-known test vectors: k*G x/y for small k.
	tests := []struct {
		k    int64
		x, y string
	}{
		{1,
			"79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
			"483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"},
		{2,
			"c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
			"1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"},
		{3,
			"f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
			"388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672"},
		{7,
			"5cbdf0646e5db4eaa398f365f2ea7a0e3d419b7e0330e39ce92bddedcac4f9bc",
			"6aebca40ba255960a3178d6d861a54dba813d0b813fde7b5a5082628087264da"},
	}
	for _, tc := range tests {
		got := ScalarBaseMult(big.NewInt(tc.k))
		if got.X.Text(16) != tc.x || got.Y.Text(16) != tc.y {
			t.Errorf("k=%d: got (%s, %s), want (%s, %s)",
				tc.k, got.X.Text(16), got.Y.Text(16), tc.x, tc.y)
		}
	}
}

func TestAddCommutativeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		a := ScalarBaseMult(randScalar(rng))
		b := ScalarBaseMult(randScalar(rng))
		c := ScalarBaseMult(randScalar(rng))
		if !Add(a, b).Equal(Add(b, a)) {
			t.Fatal("addition not commutative")
		}
		if !Add(Add(a, b), c).Equal(Add(a, Add(b, c))) {
			t.Fatal("addition not associative")
		}
	}
}

func TestAddInverse(t *testing.T) {
	p := ScalarBaseMult(big.NewInt(42))
	if !Add(p, p.Neg()).Infinity() {
		t.Fatal("p + (-p) != infinity")
	}
	if !Add(p, Point{}).Equal(p) {
		t.Fatal("p + 0 != p")
	}
	if !Add(Point{}, p).Equal(p) {
		t.Fatal("0 + p != p")
	}
}

func TestScalarMultDistributes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		a, b := randScalar(rng), randScalar(rng)
		sum := new(big.Int).Add(a, b)
		lhs := ScalarBaseMult(sum)
		rhs := Add(ScalarBaseMult(a), ScalarBaseMult(b))
		if !lhs.Equal(rhs) {
			t.Fatalf("(a+b)G != aG + bG for a=%v b=%v", a, b)
		}
	}
}

func TestDoubleMatchesAdd(t *testing.T) {
	p := ScalarBaseMult(big.NewInt(99))
	if !Double(p).Equal(Add(p, p)) {
		t.Fatal("double(p) != p+p")
	}
}

func TestPointSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		p := ScalarBaseMult(randScalar(rng))
		for _, enc := range [][]byte{p.SerializeCompressed(), p.SerializeUncompressed()} {
			got, err := ParsePoint(enc)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if !got.Equal(p) {
				t.Fatalf("round trip mismatch: %v != %v", got, p)
			}
		}
	}
}

func TestParsePointRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x02},
		make([]byte, 33), // x=0 prefix 0x00
		append([]byte{0x05}, make([]byte, 32)...),
		append([]byte{0x04}, make([]byte, 64)...), // (0,0) not on curve
	}
	for i, c := range cases {
		if _, err := ParsePoint(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// x >= p must be rejected.
	bad := make([]byte, 33)
	bad[0] = 0x02
	P().FillBytes(bad[1:])
	if _, err := ParsePoint(bad); err == nil {
		t.Error("x >= p accepted")
	}
}

func TestECDSASignVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		key := testKey(t, rng)
		digest := sha256.Sum256([]byte{byte(i)})
		sig, err := key.Sign(digest[:])
		if err != nil {
			t.Fatalf("sign: %v", err)
		}
		if !sig.Verify(digest[:], key.PubKey()) {
			t.Fatal("signature did not verify")
		}
		// Low-S must hold.
		if sig.S.Cmp(halfN) > 0 {
			t.Fatal("signature not low-S normalized")
		}
		// Tampered digest must fail.
		bad := sha256.Sum256([]byte{byte(i), 0xFF})
		if sig.Verify(bad[:], key.PubKey()) {
			t.Fatal("signature verified against wrong digest")
		}
		// Wrong key must fail.
		other := testKey(t, rng)
		if sig.Verify(digest[:], other.PubKey()) {
			t.Fatal("signature verified under wrong key")
		}
	}
}

func TestECDSADeterministic(t *testing.T) {
	key := mustKey(t, 12345)
	digest := sha256.Sum256([]byte("deterministic"))
	s1, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	if s1.R.Cmp(s2.R) != 0 || s1.S.Cmp(s2.S) != 0 {
		t.Fatal("deterministic signing produced different signatures")
	}
}

func TestDERRoundTrip(t *testing.T) {
	key := mustKey(t, 777)
	digest := sha256.Sum256([]byte("der"))
	sig, err := key.Sign(digest[:])
	if err != nil {
		t.Fatal(err)
	}
	der := sig.SerializeDER()
	got, err := ParseDERSignature(der)
	if err != nil {
		t.Fatalf("parse DER: %v", err)
	}
	if got.R.Cmp(sig.R) != 0 || got.S.Cmp(sig.S) != 0 {
		t.Fatal("DER round trip mismatch")
	}
}

func TestDERRejectsMalformed(t *testing.T) {
	key := mustKey(t, 778)
	digest := sha256.Sum256([]byte("der2"))
	sig, _ := key.Sign(digest[:])
	der := sig.SerializeDER()

	cases := map[string][]byte{
		"empty":        {},
		"not-sequence": append([]byte{0x31}, der[1:]...),
		"truncated":    der[:len(der)-1],
		"trailing":     append(append([]byte{}, der...), 0x00),
	}
	// Fix up lengths where needed: truncated/trailing get caught by checks.
	for name, data := range cases {
		if _, err := ParseDERSignature(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSchnorrSignVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		key := testKey(t, rng)
		msg := sha256.Sum256([]byte{0xAA, byte(i)})
		sig, err := key.SchnorrSign(msg[:])
		if err != nil {
			t.Fatalf("schnorr sign: %v", err)
		}
		px := new(big.Int).SetBytes(key.PubKey().XOnlyPubKey())
		if !SchnorrVerify(sig, msg[:], px) {
			t.Fatal("schnorr signature did not verify")
		}
		bad := sha256.Sum256([]byte{0xBB, byte(i)})
		if SchnorrVerify(sig, bad[:], px) {
			t.Fatal("schnorr verified wrong message")
		}
	}
}

func TestSchnorrSerializationRoundTrip(t *testing.T) {
	key := mustKey(t, 31337)
	msg := sha256.Sum256([]byte("schnorr-io"))
	sig, err := key.SchnorrSign(msg[:])
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSchnorrSignature(sig.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if got.RX.Cmp(sig.RX) != 0 || got.S.Cmp(sig.S) != 0 {
		t.Fatal("schnorr serialization round trip mismatch")
	}
}

// Property: signing then verifying always succeeds for any seed/message pair.
func TestQuickSignVerify(t *testing.T) {
	f := func(seed int64, msg []byte) bool {
		if seed == 0 {
			seed = 1
		}
		key := mustKeyQuick(seed)
		digest := sha256.Sum256(msg)
		sig, err := key.Sign(digest[:])
		if err != nil {
			return false
		}
		return sig.Verify(digest[:], key.PubKey())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: compressed serialization round-trips for arbitrary scalars.
func TestQuickPointRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		if seed == 0 {
			seed = 1
		}
		p := ScalarBaseMult(big.NewInt(seed).Abs(big.NewInt(seed)))
		if p.Infinity() {
			return true
		}
		got, err := ParsePoint(p.SerializeCompressed())
		return err == nil && got.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantTimeEq(t *testing.T) {
	if !constantTimeEq([]byte{1, 2}, []byte{1, 2}) {
		t.Fatal("equal slices reported unequal")
	}
	if constantTimeEq([]byte{1, 2}, []byte{1, 3}) || constantTimeEq([]byte{1}, []byte{1, 2}) {
		t.Fatal("unequal slices reported equal")
	}
}

func TestXOnlyLiftRoundTrip(t *testing.T) {
	key := mustKey(t, 55)
	pub := key.PubKey()
	x := new(big.Int).SetBytes(pub.XOnlyPubKey())
	y, err := liftX(x, false)
	if err != nil {
		t.Fatal(err)
	}
	pt := Point{X: x, Y: y}
	if !pt.OnCurve() {
		t.Fatal("lifted point not on curve")
	}
	if y.Bit(0) != 0 {
		t.Fatal("liftX(even) returned odd y")
	}
}

func TestSerializeCompressedPrefix(t *testing.T) {
	key := mustKey(t, 88)
	enc := key.PubKey().SerializeCompressed()
	if enc[0] != 0x02 && enc[0] != 0x03 {
		t.Fatalf("bad prefix %x", enc[0])
	}
	if len(enc) != 33 {
		t.Fatalf("bad length %d", len(enc))
	}
	if bytes.Equal(enc[1:], make([]byte, 32)) {
		t.Fatal("zero x coordinate")
	}
}

// --- helpers ---

func randScalar(rng *rand.Rand) *big.Int {
	buf := make([]byte, 32)
	rng.Read(buf)
	v := new(big.Int).SetBytes(buf)
	v.Mod(v, curveN)
	if v.Sign() == 0 {
		v.SetInt64(1)
	}
	return v
}

func testKey(t *testing.T, rng *rand.Rand) *PrivateKey {
	t.Helper()
	return &PrivateKey{D: randScalar(rng)}
}

func mustKey(t *testing.T, seed int64) *PrivateKey {
	t.Helper()
	return mustKeyQuick(seed)
}

func mustKeyQuick(seed int64) *PrivateKey {
	rng := rand.New(rand.NewSource(seed))
	return &PrivateKey{D: randScalar(rng)}
}
