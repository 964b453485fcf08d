// Package tecdsa implements the threshold signature service the IC exposes
// to canisters (§I: "The IC implements both threshold ECDSA and threshold
// Schnorr protocols ... providing canisters with public keys for both
// schemes and the ability to sign arbitrary data under those keys").
//
// The implementation is an honest-majority, passively-secure multi-party
// computation over the secp256k1 scalar field:
//
//   - Shamir secret sharing,
//   - dealerless distributed key generation (sum of random dealings),
//   - nonce generation and inversion via the Bar-Ilan–Beaver trick
//     (open k·a for a random blinding a, then k⁻¹ = a·(k·a)⁻¹),
//   - threshold ECDSA following the s = k⁻¹(z + r·x) equation on
//     degree-2t product sharings, and
//   - threshold Schnorr (BIP340-style), which is linear and therefore
//     needs only degree-t interpolation.
//
// Substitution note: the paper's production
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

// shareSecret splits secret into n shares with reconstruction threshold t+1
// (a degree-t polynomial).
func shareSecret(secret *big.Int, n, t int, rng io.Reader) ([]Share, error) {
	if t < 0 || n < t+1 {
		return nil, fmt.Errorf("tecdsa: invalid sharing parameters n=%d t=%d", n, t)
	}
	poly, err := newPolynomial(secret, t, rng)
	if err != nil {
		return nil, err
	}
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		shares[i] = Share{Index: i + 1, Value: poly.eval(int64(i + 1))}
	}
	return shares, nil
}
