package ic_test

import (
	"encoding/hex"
	"errors"
	"testing"

	"icbtc/internal/adapter"
	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/ic"
	"icbtc/internal/obs"
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

// TestResponseDigestPinned holds the digest's byte stream still: each row is
// a response shape a probe method returns, or a corner of the reflective
// walk, with its digest under a nil and a non-nil error. The other digest
// tests only compare digests with each other, so an encoder change that
// moves every digest alike passes them; this table does not. A moved row
// means every signature a client holds stops verifying.
func TestResponseDigestPinned(t *testing.T) {
	coins := []utxo.Coin{
		{OutPoint: btc.OutPoint{TxID: btc.Hash{1, 2, 3}, Vout: 0}, Value: 5_000, Height: 9},
		{OutPoint: btc.OutPoint{TxID: btc.Hash{31: 0xfe}, Vout: 7}, Value: 700, Height: 8},
	}
	page := &canister.GetUTXOsResult{UTXOs: coins, TipHash: btc.Hash{7, 31: 1}, TipHeight: 9,
		NextPage: utxo.PageToken{0xde, 0xad, 0xbe, 0xef}, StableCount: 1, UnstableCount: 1}
	headers := &canister.GetBlockHeadersResult{Headers: []btc.BlockHeader{
		{Version: 1, Timestamp: 1231006505, Bits: 0x207fffff, Nonce: 2},
		{Version: 0x20000000, PrevBlock: btc.Hash{9}, MerkleRoot: btc.Hash{31: 4}, Timestamp: 1231007105, Bits: 0x207fffff, Nonce: 0xffffffff},
	}, TipHeight: 1}
	health := &canister.HealthStatus{AdapterState: adapter.StateSyncing, AdapterHeight: 12, TipHeight: 11,
		AnchorHeight: 5, AvailableHeight: 11, TipLag: 1, Synced: true}
	for _, row := range []struct {
		name     string
		value    any
		ok, fail string // hex digests with a nil and with a non-nil error
	}{
		{"get_balance int64", int64(123_456_789),
			"81a0561ac2604a3594bb1b8f820cb4757461b4371050c8cda65c9533f071f4a2",
			"80f27ec0210dedca33db3eb1730a89725d0aeddcf31e8c28e855703d37801189"},
		{"get_utxos page", page,
			"a866017350a0f44677e710bc47676ab689e5db3642548a682242193d1424bc4d",
			"ba6d34876197b488493aac71af33d87199f37df2d3c42b3cfcb1760acc02c098"},
		{"fee percentiles []int64", []int64{1, 2, 500, -3},
			"39375d3a895960cb3cf2604845088377f0576c795ecd8f77e8656f5196d808a9",
			"418dc440dd615bd544497ec8a02021c55c75819cf3fb53a84af3811081600718"},
		{"block hash", btc.Hash{0xaa, 31: 0x55},
			"f5333250a8dde530e641d73656a04e1352f87abfdaf35fad079d51ea78d99aea",
			"99126fdb3787f5a1d1624af7dd885e4554acd72db4ccdd4832e11c847642d5f0"},
		{"get_block_headers", headers,
			"6ae8ef01b8aed5169ce12c823546cc351c360d34e299ec0314e601ec490ae9ad",
			"8393449a978c4f9fb4403c764ffe80362f594d02e08d553bb3f67ada4a846a8e"},
		{"health", health,
			"00f409ece216440d524a2c57667300224b63f3a7272a39eafc2a8484b8f643c5",
			"25de5303c298e0ea56d15dee2bf896cafa8ae0354643e7cce0cf4cd535264823"},
		{"metrics", &canister.MetricsResult{Encoded: []byte("icbtc/obs-snapshot\n\x00\x01")},
			"7dab06dcc92f923a5823cb41b45d59ffd2abf44f85a80d122d6bf334d7cf9624",
			"e053f04c26660b0aa9e07b08eaf7d713fda90077a5cf18734d985fe8639407c7"},
		{"gauges", []obs.GaugePoint{{Name: "canister_tip_height", Value: 11}, {Name: "neg", Value: -2}},
			"0c477a00638fc9091d68ef89efc81b25cda12e95c02f2a0482e5ffb0089e0d07",
			"fd5ae2a1ad7347e39ae214e69c6e600808e32c177727f7091dcf54c5361069d9"},
		{"certified query", ic.CertifiedQuery{Method: "get_utxos", Value: page, AnchorHeight: 5, TipHeight: 9},
			"dc263fe8f4788dabcf97f59e3039cbb4b518e05731685327c80d9514c7f48db3",
			"b5bd9f3d99386b760e49ef89265b0242e38545d17877fdfda1974e0f74f53c76"},
		{"certified error", ic.CertifiedQuery{Method: "get_balance", ErrText: "canister: not synced", AnchorHeight: 5, TipHeight: 9},
			"46226a831a72e727b7f0834eff48e4ef450727479acdb0e6912bf8786424b26d",
			"6cc772360993eb1d242b9efed0d54c48b2c79554a64a0798630e5ce0177caaeb"},
		// Every nil — interface, slice, pointer — is the one tag 'z'.
		{"nil", nil,
			"2384dc9323ab8bb94d570995e4d456b3001eb9db8e75a51ed74f3a6784c15caa",
			"062a3ab2852f5d72c2b421dbca2586d4323b25e780cfd5e7a08e148666866efb"},
		{"nil slice", []byte(nil),
			"2384dc9323ab8bb94d570995e4d456b3001eb9db8e75a51ed74f3a6784c15caa",
			"062a3ab2852f5d72c2b421dbca2586d4323b25e780cfd5e7a08e148666866efb"},
		{"empty slice", []byte{},
			"611ff695a05fd9dee5d4a23ff5833e95179e518597801efa659429e99997dcc3",
			"e41797f157f69a8e5fbe13baa740d6bd2e8df10224878280fdaf1a16b923028e"},
		{"byte array", [4]byte{1, 2, 3, 4},
			"827959c88a1c099ef54c97e08af36ea0dc3dd79f787fb6427aa56b81bfb331f9",
			"b2f02ef7933e978d1a8033e6f8f36c06084c3e24916ca571c93d154f1f913011"},
		{"3-key map", map[string]int64{"c": 3, "a": 1, "b": 2},
			"18a0cf542b59743a6ea36d4f584797d241cdd2030b23b78f116dc9015f97a042",
			"0c25dbccc838047a99acf3f0075367c1d203548c65903552318f61a643291bfa"},
		{"nil pointer", (*canister.HealthStatus)(nil),
			"2384dc9323ab8bb94d570995e4d456b3001eb9db8e75a51ed74f3a6784c15caa",
			"062a3ab2852f5d72c2b421dbca2586d4323b25e780cfd5e7a08e148666866efb"},
		{"chan", make(chan int),
			"5b7c3007f5f1cd6ec32f552093fa877be03c60908cf4d5318c9e2036d4a1be41",
			"9d6c59840e586c1fb4b552bdd4ca097ba64909aee2676bf05cb7bab319a39abf"},
		{"float and string", struct {
			F float64
			S string
			U uint16
		}{F: 1.5, S: "x", U: 0xbeef},
			"75392fc8d3db7b9c47c0547d8fa2a9dd375527dcabe08d774330b98a07f8008e",
			"068b57ccff8dc173229cd275c14a50f2816213ecb2c210ee84d5faf86d4b851b"},
	} {
		for _, c := range []struct {
			err  error
			want string
		}{{nil, row.ok}, {errors.New("canister: not synced"), row.fail}} {
			d := ic.ResponseDigest(row.value, c.err)
			if got := hex.EncodeToString(d[:]); got != c.want {
				t.Errorf("%s (err %v): digest %s, pinned %s", row.name, c.err, got, c.want)
			}
		}
	}
}
