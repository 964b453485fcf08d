package btc

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestHashLess holds Less to its definition: the byte-reversed (display
// order) hashes compared as byte strings. Each pair shares its k most
// significant bytes, so every byte position decides some comparison, and
// k = HashSize gives equal pairs, which neither order may put first.
func TestHashLess(t *testing.T) {
	reversed := func(h Hash) []byte {
		out := make([]byte, HashSize)
		for i := range h {
			out[HashSize-1-i] = h[i]
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		for k := 0; k <= HashSize; k++ {
			var a, b Hash
			rng.Read(a[:])
			rng.Read(b[:])
			copy(b[HashSize-k:], a[HashSize-k:])
			want := bytes.Compare(reversed(a), reversed(b))
			if got := a.Less(b); got != (want < 0) {
				t.Fatalf("%v.Less(%v) = %v, want %v", a, b, got, want < 0)
			}
			if got := b.Less(a); got != (want > 0) {
				t.Fatalf("%v.Less(%v) = %v, want %v", b, a, got, want > 0)
			}
		}
	}
}
