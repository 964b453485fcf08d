// Package tecdsa implements the threshold signature service the IC exposes
// to canisters (§I: "The IC implements both threshold ECDSA and threshold
// Schnorr protocols ... providing canisters with public keys for both
// schemes and the ability to sign arbitrary data under those keys").
//
// The implementation is an honest-majority, passively-secure multi-party
// computation over the secp256k1 scalar field:
//
//   - Shamir secret sharing with Feldman verifiable-secret-sharing
//     commitments,
//   - dealerless distributed key generation (sum of random dealings),
//   - nonce generation and inversion via the Bar-Ilan–Beaver trick
//     (open k·a for a random blinding a, then k⁻¹ = a·(k·a)⁻¹),
//   - threshold ECDSA following the s = k⁻¹(z + r·x) equation on
//     degree-2t product sharings, and
//   - threshold Schnorr (BIP340-style), which is linear and therefore
//     needs only degree-t interpolation.
//
// Substitution note (documented in DESIGN.md): the paper's production
// protocol [Groth–Shoup 2022] is actively secure against f < n/3 Byzantine
// signers under asynchrony; this reproduction provides the same interface
// and signature artifacts with passive security, which suffices for every
// experiment in the paper's evaluation.
package tecdsa

import (
	"fmt"
	"io"
	"math/big"

	"icbtc/internal/secp256k1"
)

// Share is one party's Shamir share: the evaluation of a secret polynomial
// at x = Index (1-based; index 0 would reveal the secret).
type Share struct {
	Index int
	Value *big.Int
}

// randScalar samples a uniform nonzero scalar from r.
func randScalar(r io.Reader) (*big.Int, error) {
	buf := make([]byte, 32)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("tecdsa: sampling scalar: %w", err)
		}
		v := new(big.Int).SetBytes(buf)
		v.Mod(v, secp256k1.N())
		if v.Sign() != 0 {
			return v, nil
		}
	}
}

// polynomial holds coefficients a0..at of a degree-t polynomial over the
// scalar field; a0 is the shared secret.
type polynomial struct {
	coeffs []*big.Int
}

func newPolynomial(secret *big.Int, degree int, rng io.Reader) (*polynomial, error) {
	p := &polynomial{coeffs: make([]*big.Int, degree+1)}
	p.coeffs[0] = new(big.Int).Mod(secret, secp256k1.N())
	for i := 1; i <= degree; i++ {
		c, err := randScalar(rng)
		if err != nil {
			return nil, err
		}
		p.coeffs[i] = c
	}
	return p, nil
}

// eval computes p(x) mod n via Horner's rule.
func (p *polynomial) eval(x int64) *big.Int {
	n := secp256k1.N()
	acc := new(big.Int)
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, big.NewInt(x))
		acc.Add(acc, p.coeffs[i])
		acc.Mod(acc, n)
	}
	return acc
}

// lagrangeCoefficient computes the Lagrange basis value λ_i(0) for the set
// of share indices, i.e. the weight of share idx when interpolating at 0.
func lagrangeCoefficient(idx int, indices []int) *big.Int {
	n := secp256k1.N()
	num := big.NewInt(1)
	den := big.NewInt(1)
	xi := big.NewInt(int64(idx))
	for _, j := range indices {
		if j == idx {
			continue
		}
		xj := big.NewInt(int64(j))
		// num *= (0 - xj) = -xj ; den *= (xi - xj)
		num.Mul(num, new(big.Int).Neg(xj))
		num.Mod(num, n)
		den.Mul(den, new(big.Int).Sub(xi, xj))
		den.Mod(den, n)
	}
	den.ModInverse(den, n)
	num.Mul(num, den)
	return num.Mod(num, n)
}

// Reconstruct interpolates the secret from at least degree+1 shares of a
// degree-`degree` sharing.
func Reconstruct(shares []Share, degree int) (*big.Int, error) {
	if len(shares) < degree+1 {
		return nil, fmt.Errorf("tecdsa: need %d shares for degree %d, have %d", degree+1, degree, len(shares))
	}
	use := shares[:degree+1]
	indices := make([]int, len(use))
	seen := make(map[int]bool, len(use))
	for i, s := range use {
		if s.Index <= 0 {
			return nil, fmt.Errorf("tecdsa: invalid share index %d", s.Index)
		}
		if seen[s.Index] {
			return nil, fmt.Errorf("tecdsa: duplicate share index %d", s.Index)
		}
		seen[s.Index] = true
		indices[i] = s.Index
	}
	n := secp256k1.N()
	secret := new(big.Int)
	for _, s := range use {
		lambda := lagrangeCoefficient(s.Index, indices)
		term := new(big.Int).Mul(lambda, s.Value)
		secret.Add(secret, term)
		secret.Mod(secret, n)
	}
	return secret, nil
}

// FeldmanCommitment is the public commitment to a sharing polynomial:
// C_j = a_j·G for each coefficient. Any party can verify its share against
// the commitment without learning the polynomial.
type FeldmanCommitment struct {
	Points []secp256k1.Point
}

// CommitPolynomial builds the Feldman commitment for the polynomial that
// produced the given shares. Dealers call this at sharing time.
func commitPolynomial(p *polynomial) FeldmanCommitment {
	c := FeldmanCommitment{Points: make([]secp256k1.Point, len(p.coeffs))}
	for i, a := range p.coeffs {
		c.Points[i] = secp256k1.ScalarBaseMult(a)
	}
	return c
}

// ShareSecretVerifiable splits secret into n shares with reconstruction
// threshold t+1 (a degree-t polynomial) and returns the Feldman commitment to
// that polynomial.
func ShareSecretVerifiable(secret *big.Int, n, t int, rng io.Reader) ([]Share, FeldmanCommitment, error) {
	if t < 0 || n < t+1 {
		return nil, FeldmanCommitment{}, fmt.Errorf("tecdsa: invalid sharing parameters n=%d t=%d", n, t)
	}
	poly, err := newPolynomial(secret, t, rng)
	if err != nil {
		return nil, FeldmanCommitment{}, err
	}
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		shares[i] = Share{Index: i + 1, Value: poly.eval(int64(i + 1))}
	}
	return shares, commitPolynomial(poly), nil
}

// VerifyShare checks share s against a Feldman commitment:
// s.Value·G == Σ_j C_j · s.Index^j.
func VerifyShare(s Share, c FeldmanCommitment) bool {
	if s.Index <= 0 || s.Value == nil || len(c.Points) == 0 {
		return false
	}
	lhs := secp256k1.ScalarBaseMult(s.Value)
	rhs := secp256k1.Point{}
	xPow := big.NewInt(1)
	x := big.NewInt(int64(s.Index))
	n := secp256k1.N()
	for _, cj := range c.Points {
		rhs = secp256k1.Add(rhs, secp256k1.ScalarMult(cj, xPow))
		xPow = new(big.Int).Mul(xPow, x)
		xPow.Mod(xPow, n)
	}
	return lhs.Equal(rhs)
}

// PublicPoint returns the committed secret's public point C_0 = secret·G.
func (c FeldmanCommitment) PublicPoint() secp256k1.Point {
	if len(c.Points) == 0 {
		return secp256k1.Point{}
	}
	return c.Points[0]
}

// AddCommitments adds two commitments coefficient-wise, the commitment of
// the summed polynomials (used by the dealerless DKG).
func AddCommitments(a, b FeldmanCommitment) FeldmanCommitment {
	if len(a.Points) == 0 {
		return b
	}
	if len(b.Points) == 0 {
		return a
	}
	size := len(a.Points)
	if len(b.Points) > size {
		size = len(b.Points)
	}
	out := FeldmanCommitment{Points: make([]secp256k1.Point, size)}
	for i := 0; i < size; i++ {
		var pa, pb secp256k1.Point
		if i < len(a.Points) {
			pa = a.Points[i]
		}
		if i < len(b.Points) {
			pb = b.Points[i]
		}
		out.Points[i] = secp256k1.Add(pa, pb)
	}
	return out
}
