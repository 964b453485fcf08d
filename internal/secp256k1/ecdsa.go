package secp256k1

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// PrivateKey is a secp256k1 private key (a scalar in [1, n-1]).
type PrivateKey struct {
	D *big.Int
}

// PublicKey is a secp256k1 public key (a non-identity curve point).
type PublicKey struct {
	Point
}

// GeneratePrivateKey samples a uniformly random private key from r
// (crypto/rand.Reader if r is nil).
func GeneratePrivateKey(r io.Reader) (*PrivateKey, error) {
	if r == nil {
		r = rand.Reader
	}
	for {
		buf := make([]byte, 32)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("secp256k1: sampling key: %w", err)
		}
		d := new(big.Int).SetBytes(buf)
		d.Mod(d, curveN)
		if d.Sign() != 0 {
			return &PrivateKey{D: d}, nil
		}
	}
}

// PubKey derives the public key d*G.
func (k *PrivateKey) PubKey() *PublicKey {
	return &PublicKey{Point: ScalarBaseMult(k.D)}
}

// ParsePubKey decodes a compressed or uncompressed SEC public key.
func ParsePubKey(data []byte) (*PublicKey, error) {
	pt, err := ParsePoint(data)
	if err != nil {
		return nil, err
	}
	if pt.Infinity() {
		return nil, ErrInvalidPoint
	}
	return &PublicKey{Point: pt}, nil
}

// Signature is an ECDSA signature (r, s) with s normalized to the lower half
// of the group order (Bitcoin's "low-S" rule, BIP 62).
type Signature struct {
	R, S *big.Int
}

// HashToScalar converts a message digest to a scalar per SEC1 §4.1.3
// (truncate to the bit length of n, then reduce). The threshold ECDSA
// protocol signs the same scalar.
func HashToScalar(digest []byte) *big.Int {
	z := new(big.Int).SetBytes(digest)
	excess := len(digest)*8 - curveN.BitLen()
	if excess > 0 {
		z.Rsh(z, uint(excess))
	}
	return z.Mod(z, curveN)
}

// rfc6979Nonce derives a deterministic nonce from the key and digest
// following the HMAC-DRBG construction of RFC 6979.
func rfc6979Nonce(d *big.Int, digest []byte, extra byte) *big.Int {
	x := make([]byte, 32)
	d.FillBytes(x)
	h1 := make([]byte, 32)
	HashToScalar(digest).FillBytes(h1)

	v := make([]byte, 32)
	k := make([]byte, 32)
	for i := range v {
		v[i] = 0x01
	}

	mac := func(key []byte, parts ...[]byte) []byte {
		m := hmac.New(sha256.New, key)
		for _, p := range parts {
			m.Write(p)
		}
		return m.Sum(nil)
	}

	// K = HMAC(K, V || 0x00 || x || h1 [|| extra])
	suffix := []byte{}
	if extra != 0 {
		suffix = []byte{extra}
	}
	k = mac(k, v, []byte{0x00}, x, h1, suffix)
	v = mac(k, v)
	k = mac(k, v, []byte{0x01}, x, h1, suffix)
	v = mac(k, v)

	for {
		v = mac(k, v)
		t := new(big.Int).SetBytes(v)
		if t.Sign() > 0 && t.Cmp(curveN) < 0 {
			return t
		}
		k = mac(k, v, []byte{0x00})
		v = mac(k, v)
	}
}

// Sign produces a deterministic ECDSA signature over a 32-byte digest.
func (k *PrivateKey) Sign(digest []byte) (*Signature, error) {
	if len(digest) != 32 {
		return nil, fmt.Errorf("secp256k1: digest must be 32 bytes, got %d", len(digest))
	}
	z := HashToScalar(digest)
	for extra := byte(0); ; extra++ {
		nonce := rfc6979Nonce(k.D, digest, extra)
		sig, err := signWithNonce(k.D, z, nonce)
		if err == nil {
			return sig, nil
		}
		if extra == 255 {
			return nil, errors.New("secp256k1: nonce derivation failed")
		}
	}
}

var errRetryNonce = errors.New("secp256k1: retry with different nonce")

// signWithNonce computes (r, s) for a fixed nonce. It is shared by the local
// signer and by the threshold-signing test vectors.
func signWithNonce(d, z, nonce *big.Int) (*Signature, error) {
	rp := ScalarBaseMult(nonce)
	if rp.Infinity() {
		return nil, errRetryNonce
	}
	r := new(big.Int).Mod(rp.X, curveN)
	if r.Sign() == 0 {
		return nil, errRetryNonce
	}
	kInv := new(big.Int).ModInverse(nonce, curveN)
	s := new(big.Int).Mul(r, d)
	s.Add(s, z)
	s.Mul(s, kInv)
	s.Mod(s, curveN)
	if s.Sign() == 0 {
		return nil, errRetryNonce
	}
	sig := &Signature{R: r, S: s}
	sig.NormalizeS()
	return sig, nil
}

// NormalizeS enforces the low-S rule in place.
func (s *Signature) NormalizeS() {
	if s.S.Cmp(halfN) > 0 {
		s.S = new(big.Int).Sub(curveN, s.S)
	}
}

// Verify reports whether the signature is valid over digest under pub.
func (s *Signature) Verify(digest []byte, pub *PublicKey) bool {
	if pub == nil || pub.Infinity() || len(digest) != 32 {
		return false
	}
	if s.R.Sign() <= 0 || s.R.Cmp(curveN) >= 0 || s.S.Sign() <= 0 || s.S.Cmp(curveN) >= 0 {
		return false
	}
	z := HashToScalar(digest)
	w := new(big.Int).ModInverse(s.S, curveN)
	u1 := new(big.Int).Mul(z, w)
	u1.Mod(u1, curveN)
	u2 := new(big.Int).Mul(s.R, w)
	u2.Mod(u2, curveN)
	pt := Add(ScalarBaseMult(u1), ScalarMult(pub.Point, u2))
	if pt.Infinity() {
		return false
	}
	v := new(big.Int).Mod(pt.X, curveN)
	return v.Cmp(s.R) == 0
}

// SerializeDER encodes the signature using ASN.1 DER as Bitcoin expects
// (minimal positive INTEGERs inside a SEQUENCE).
func (s *Signature) SerializeDER() []byte {
	r := derInt(s.R)
	sb := derInt(s.S)
	body := make([]byte, 0, len(r)+len(sb)+4)
	body = append(body, 0x02, byte(len(r)))
	body = append(body, r...)
	body = append(body, 0x02, byte(len(sb)))
	body = append(body, sb...)
	out := make([]byte, 0, len(body)+2)
	out = append(out, 0x30, byte(len(body)))
	return append(out, body...)
}

func derInt(v *big.Int) []byte {
	b := v.Bytes()
	if len(b) == 0 {
		return []byte{0x00}
	}
	if b[0]&0x80 != 0 {
		return append([]byte{0x00}, b...)
	}
	return b
}

// ParseDERSignature decodes a DER-encoded ECDSA signature.
func ParseDERSignature(data []byte) (*Signature, error) {
	bad := func(why string) error { return fmt.Errorf("secp256k1: bad DER signature: %s", why) }
	if len(data) < 8 || data[0] != 0x30 {
		return nil, bad("missing sequence")
	}
	if int(data[1]) != len(data)-2 {
		return nil, bad("length mismatch")
	}
	rest := data[2:]
	readInt := func() (*big.Int, error) {
		if len(rest) < 2 || rest[0] != 0x02 {
			return nil, bad("missing integer")
		}
		n := int(rest[1])
		if n == 0 || n > len(rest)-2 {
			return nil, bad("integer length")
		}
		raw := rest[2 : 2+n]
		if raw[0]&0x80 != 0 {
			return nil, bad("negative integer")
		}
		if n > 1 && raw[0] == 0x00 && raw[1]&0x80 == 0 {
			return nil, bad("non-minimal integer")
		}
		rest = rest[2+n:]
		return new(big.Int).SetBytes(raw), nil
	}
	r, err := readInt()
	if err != nil {
		return nil, err
	}
	sv, err := readInt()
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, bad("trailing bytes")
	}
	return &Signature{R: r, S: sv}, nil
}
