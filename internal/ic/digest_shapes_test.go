package ic_test

import (
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/utxo"
)

// TestResponseDigestShapes pins the canonical encoder's handling of the
// shapes canister responses actually use: nested structs, byte slices,
// nil-vs-empty, pointers, and the get_utxos page itself. A page of coins
// carries no script, so what certification binds is the rest of each entry
// and the entries' order: two pages that differ in any one of them must
// certify differently.
func TestResponseDigestShapes(t *testing.T) {
	type inner struct {
		N int64
		B []byte
	}
	type outer struct {
		Name  string
		Inner inner
		Ptr   *inner
		List  []inner
		M     map[int64][]byte
	}
	v1 := outer{
		Name:  "x",
		Inner: inner{N: 7, B: []byte{1, 2}},
		Ptr:   &inner{N: 9},
		List:  []inner{{N: 1}, {N: 2}},
		M:     map[int64][]byte{3: {3}, 1: {1}, 2: {2}},
	}
	v2 := outer{
		Name:  "x",
		Inner: inner{N: 7, B: []byte{1, 2}},
		Ptr:   &inner{N: 9},
		List:  []inner{{N: 1}, {N: 2}},
		M:     map[int64][]byte{2: {2}, 1: {1}, 3: {3}},
	}
	if ic.ResponseDigest(v1, nil) != ic.ResponseDigest(v2, nil) {
		t.Fatal("equal values digested differently")
	}
	v2.List[1].N = 3
	if ic.ResponseDigest(v1, nil) == ic.ResponseDigest(v2, nil) {
		t.Fatal("nested change did not move the digest")
	}
	// nil and empty slices are distinct values and must not collide with
	// each other via length alone.
	if ic.ResponseDigest([]byte(nil), nil) == ic.ResponseDigest([]byte{}, nil) {
		t.Fatal("nil slice collided with empty slice")
	}
	if ic.ResponseDigest(nil, nil) == ic.ResponseDigest(uint64(0), nil) {
		t.Fatal("nil collided with zero")
	}

	page := func(coins ...utxo.Coin) *canister.GetUTXOsResult {
		return &canister.GetUTXOsResult{UTXOs: coins, TipHash: btc.Hash{7}, TipHeight: 9, StableCount: len(coins)}
	}
	a := utxo.Coin{OutPoint: btc.OutPoint{TxID: btc.Hash{1}, Vout: 0}, Value: 5_000, Height: 9}
	b := utxo.Coin{OutPoint: btc.OutPoint{TxID: btc.Hash{2}, Vout: 1}, Value: 700, Height: 8}
	with := func(edit func(*utxo.Coin)) *canister.GetUTXOsResult {
		c := a
		edit(&c)
		return page(c, b)
	}
	base := ic.ResponseDigest(page(a, b), nil)
	if ic.ResponseDigest(page(a, b), nil) != base {
		t.Fatal("equal get_utxos pages digested differently")
	}
	for _, row := range []struct {
		differs string
		res     *canister.GetUTXOsResult
	}{
		{"txid", with(func(c *utxo.Coin) { c.OutPoint.TxID[31] = 1 })},
		{"vout", with(func(c *utxo.Coin) { c.OutPoint.Vout = 1 })},
		{"value", with(func(c *utxo.Coin) { c.Value++ })},
		{"height", with(func(c *utxo.Coin) { c.Height-- })},
		{"order", page(b, a)},
	} {
		if ic.ResponseDigest(row.res, nil) == base {
			t.Errorf("get_utxos pages that differ only in %s share a digest", row.differs)
		}
	}
}
