package canister

import (
	"errors"
	"os"
	"strings"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/ic"
	"icbtc/internal/utxo"
)

// TestRegistryCoversDispatch asserts the registry kinds exactly cover both
// dispatch paths: every registered method is reachable through Update,
// read-only methods (and only those) are reachable through Query, and
// unknown names fail on both — so no hand-maintained switch can drift from
// the table again.
func TestRegistryCoversDispatch(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.miner.MineChain(10, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()

	for _, m := range Methods() {
		arg := validArgFor(t, m.Name)
		if _, err := r.can.Update(r.ctx(), m.Name, arg); err != nil &&
			strings.Contains(err.Error(), "no update method") {
			t.Errorf("Update(%s) not dispatched: %v", m.Name, err)
		}
		qctx := r.ctx()
		qctx.Kind = ic.KindQuery
		_, err := r.can.Query(qctx, m.Name, arg)
		servable := err == nil || !strings.Contains(err.Error(), "no query method")
		if want := m.Kind == MethodReadOnly; servable != want {
			t.Errorf("Query(%s): servable=%v, registry kind %v wants %v", m.Name, servable, m.Kind, want)
		}
	}
	if _, err := r.can.Update(r.ctx(), "no_such_method", nil); err == nil ||
		!strings.Contains(err.Error(), "no update method") {
		t.Errorf("Update(no_such_method) = %v, want canonical dispatch error", err)
	}
	if _, err := r.can.Query(r.ctx(), "no_such_method", nil); err == nil ||
		!strings.Contains(err.Error(), "no query method") {
		t.Errorf("Query(no_such_method) = %v, want canonical dispatch error", err)
	}

	// QueryMethodNames must be exactly the read-only subset, in table order.
	var want []string
	for _, m := range Methods() {
		if m.Kind == MethodReadOnly {
			want = append(want, m.Name)
		}
	}
	got := QueryMethodNames()
	if len(got) != len(want) {
		t.Fatalf("QueryMethodNames() = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("QueryMethodNames() = %v, want %v", got, want)
		}
	}
}

// validArgFor returns a well-typed argument for each registered method; the
// test fails if the registry gains a method this helper does not know,
// forcing new endpoints to extend the coverage test.
func validArgFor(t *testing.T, method string) any {
	t.Helper()
	switch method {
	case "get_utxos":
		return GetUTXOsArgs{Address: "addr"}
	case "get_balance":
		return GetBalanceArgs{Address: "addr"}
	case "get_block_headers":
		return GetBlockHeadersArgs{StartHeight: 0, EndHeight: 1}
	case "send_transaction":
		return SendTransactionArgs{RawTx: []byte{0x01}}
	case "get_current_fee_percentiles", "get_tip", "get_health", "get_metrics":
		return nil
	default:
		t.Fatalf("registry method %q has no test argument; extend validArgFor", method)
		return nil
	}
}

// TestMethodSpecMatchesRegistry pins the ic.MethodTable implementation to
// the registry: every method routes as its kind declares, unknown names do
// not resolve.
func TestMethodSpecMatchesRegistry(t *testing.T) {
	can := New(DefaultConfig(btc.Regtest))
	for _, m := range Methods() {
		spec, ok := can.MethodSpec(m.Name)
		if !ok {
			t.Fatalf("MethodSpec(%s) not found", m.Name)
		}
		if !spec.Update {
			t.Errorf("MethodSpec(%s).Update = false; every registered method is update-servable", m.Name)
		}
		if want := m.Kind == MethodReadOnly; spec.Query != want {
			t.Errorf("MethodSpec(%s).Query = %v, want %v", m.Name, spec.Query, want)
		}
	}
	if _, ok := can.MethodSpec("no_such_method"); ok {
		t.Error("MethodSpec(no_such_method) resolved")
	}
}

// TestRequestKeyProperties is the cache-key property test: equal requests
// encode to equal keys, any differing argument field — address, network,
// min_confirmations, page cursor, limit — or a different method name changes
// the key, and a request that cannot have a key gets an error and the zero
// key, never a truncated one.
func TestRequestKeyProperties(t *testing.T) {
	utxos, _ := MethodByName("get_utxos")
	balance, _ := MethodByName("get_balance")
	headers, _ := MethodByName("get_block_headers")
	fees, _ := MethodByName("get_current_fee_percentiles")
	tip, _ := MethodByName("get_tip")

	base := GetUTXOsArgs{Address: "addr-a", Network: btc.Regtest, MinConfirmations: 2, Page: utxo.PageToken{0x01, 0x02}, Limit: 10}
	equal := GetUTXOsArgs{Address: "addr-a", Network: btc.Regtest, MinConfirmations: 2, Page: utxo.PageToken{0x01, 0x02}, Limit: 10}

	key := func(m *MethodDesc, arg any) RequestKey {
		t.Helper()
		k, err := m.RequestKey(arg)
		if err != nil {
			t.Fatalf("RequestKey(%s, %+v): %v", m.Name, arg, err)
		}
		return k
	}

	baseKey := key(utxos, base)
	if key(utxos, equal) != baseKey {
		t.Fatal("equal get_utxos requests produced different keys")
	}

	// Every single-field variation must move the key — and all variants
	// must be pairwise distinct.
	variants := map[string]any{
		"address":           GetUTXOsArgs{Address: "addr-b", Network: btc.Regtest, MinConfirmations: 2, Page: utxo.PageToken{0x01, 0x02}, Limit: 10},
		"network":           GetUTXOsArgs{Address: "addr-a", Network: btc.Mainnet, MinConfirmations: 2, Page: utxo.PageToken{0x01, 0x02}, Limit: 10},
		"min_confirmations": GetUTXOsArgs{Address: "addr-a", Network: btc.Regtest, MinConfirmations: 3, Page: utxo.PageToken{0x01, 0x02}, Limit: 10},
		"page":              GetUTXOsArgs{Address: "addr-a", Network: btc.Regtest, MinConfirmations: 2, Page: utxo.PageToken{0x01, 0x03}, Limit: 10},
		"page_empty":        GetUTXOsArgs{Address: "addr-a", Network: btc.Regtest, MinConfirmations: 2, Limit: 10},
		"limit":             GetUTXOsArgs{Address: "addr-a", Network: btc.Regtest, MinConfirmations: 2, Page: utxo.PageToken{0x01, 0x02}, Limit: 11},
	}
	seen := map[RequestKey]string{baseKey: "base"}
	for name, arg := range variants {
		k := key(utxos, arg)
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %q collides with %q", name, prev)
		}
		seen[k] = name
	}

	// Same-shaped args under a different method must not collide (the key
	// binds the method name).
	if key(balance, GetBalanceArgs{Address: "addr-a", Network: btc.Regtest, MinConfirmations: 2}) == baseKey {
		t.Error("get_balance key collides with get_utxos key")
	}
	if key(headers, GetBlockHeadersArgs{}) == key(fees, nil) {
		t.Error("get_block_headers zero-args key collides with get_current_fee_percentiles")
	}
	if key(fees, nil) == key(tip, nil) {
		t.Error("nullary methods get_current_fee_percentiles and get_tip collide")
	}

	// A wrong-typed argument is rejected with the handler's own error.
	if _, err := utxos.RequestKey(GetBalanceArgs{}); err == nil ||
		!strings.Contains(err.Error(), "wants") {
		t.Errorf("RequestKey with wrong arg type = %v, want typed-arg error", err)
	}

	// The bound is exact: the longest address that fits has a key of
	// MaxRequestKeyLen bytes, one more character (or a megabyte more) has
	// none — a typed error and nothing a caller could store by mistake.
	empty := key(utxos, GetUTXOsArgs{})
	fits := MaxRequestKeyLen - len(empty.Bytes())
	atBound := key(utxos, GetUTXOsArgs{Address: strings.Repeat("a", fits)})
	if got := len(atBound.Bytes()); got != MaxRequestKeyLen {
		t.Errorf("key at the bound is %d bytes, want %d", got, MaxRequestKeyLen)
	}
	for _, n := range []int{fits + 1, 1 << 20} {
		k, err := utxos.RequestKey(GetUTXOsArgs{Address: strings.Repeat("a", n), Page: utxo.PageToken{0x01}})
		if !errors.Is(err, ErrRequestKeyTooLong) {
			t.Errorf("RequestKey with a %d-byte address = %v, want ErrRequestKeyTooLong", n, err)
		}
		if k != (RequestKey{}) {
			t.Errorf("RequestKey with a %d-byte address returned a non-zero key", n)
		}
	}
}

// TestAPIReferenceInREADME pins the README's API reference table to the
// registry's generated output (regenerate with `go run ./cmd/apidoc`).
func TestAPIReferenceInREADME(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	table := APIReferenceMarkdown()
	if !strings.Contains(string(readme), table) {
		t.Fatalf("README.md does not contain the registry-generated API reference table; regenerate with `go run ./cmd/apidoc` and paste it under the API reference heading:\n%s", table)
	}
}
