package btc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestP2PKHAddressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for _, net := range []Network{Mainnet, Testnet, Regtest} {
		for i := 0; i < 10; i++ {
			var h [20]byte
			rng.Read(h[:])
			addr := NewP2PKHAddress(h, net)
			got, err := ParseAddress(addr.String(), net)
			if err != nil {
				t.Fatalf("%v: parse %q: %v", net, addr, err)
			}
			if got.Hash160() != h {
				t.Fatalf("%v: hash mismatch", net)
			}
			if got.IsWitness() {
				t.Fatalf("%v: P2PKH reported as witness", net)
			}
		}
	}
}

func TestP2WPKHAddressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, net := range []Network{Mainnet, Testnet, Regtest} {
		var h [20]byte
		rng.Read(h[:])
		addr := NewP2WPKHAddress(h, net)
		if !strings.HasPrefix(addr.String(), net.bech32HRP()+"1") {
			t.Fatalf("%v: bad HRP in %q", net, addr)
		}
		got, err := ParseAddress(addr.String(), net)
		if err != nil {
			t.Fatalf("%v: parse: %v", net, err)
		}
		if got.Hash160() != h || !got.IsWitness() {
			t.Fatalf("%v: decoded mismatch", net)
		}
	}
}

func TestParseAddressWrongNetwork(t *testing.T) {
	var h [20]byte
	mainAddr := NewP2PKHAddress(h, Mainnet)
	if _, err := ParseAddress(mainAddr.String(), Testnet); err == nil {
		t.Fatal("mainnet address accepted on testnet")
	}
	segwit := NewP2WPKHAddress(h, Mainnet)
	if _, err := ParseAddress(segwit.String(), Regtest); err == nil {
		t.Fatal("mainnet segwit address accepted on regtest")
	}
}

func TestParseAddressCorruption(t *testing.T) {
	var h [20]byte
	h[0] = 0x42
	addr := NewP2PKHAddress(h, Mainnet).String()
	// Flip one character; checksum must catch it.
	corrupted := []byte(addr)
	if corrupted[3] == '2' {
		corrupted[3] = '3'
	} else {
		corrupted[3] = '2'
	}
	if _, err := ParseAddress(string(corrupted), Mainnet); err == nil {
		t.Fatal("corrupted base58 address accepted")
	}

	seg := NewP2WPKHAddress(h, Mainnet).String()
	corrupted = []byte(seg)
	last := corrupted[len(corrupted)-1]
	if last == 'q' {
		corrupted[len(corrupted)-1] = 'p'
	} else {
		corrupted[len(corrupted)-1] = 'q'
	}
	if _, err := ParseAddress(string(corrupted), Mainnet); err == nil {
		t.Fatal("corrupted bech32 address accepted")
	}

	if _, err := ParseAddress("", Mainnet); err == nil {
		t.Fatal("empty address accepted")
	}
}

func TestBase58RoundTrip(t *testing.T) {
	cases := [][]byte{
		{},
		{0x00},
		{0x00, 0x00, 0x01},
		{0xff, 0xfe, 0xfd},
		{0x00, 0x01, 0x02, 0x03, 0x04},
	}
	for _, c := range cases {
		enc := base58Encode(c)
		dec, err := base58Decode(enc)
		if err != nil {
			t.Fatalf("decode %q: %v", enc, err)
		}
		if string(dec) != string(c) {
			t.Fatalf("round trip: %x -> %q -> %x", c, enc, dec)
		}
	}
	if _, err := base58Decode("0OIl"); err == nil {
		t.Fatal("invalid base58 characters accepted")
	}
}

func TestQuickBase58RoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := base58Decode(base58Encode(data))
		return err == nil && string(dec) == string(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBech32KnownVector(t *testing.T) {
	// BIP173 test vector: witness v0, 20-byte program.
	hrp, version, program, err := bech32Decode("bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t4")
	if err != nil {
		t.Fatal(err)
	}
	if hrp != "bc" || version != 0 || len(program) != 20 {
		t.Fatalf("hrp=%q version=%d len=%d", hrp, version, len(program))
	}
	// Re-encode must produce the same string.
	enc, err := bech32Encode(hrp, version, program)
	if err != nil {
		t.Fatal(err)
	}
	if enc != "bc1qw508d6qejxtdg4y5r3zarvary0c5xw7kv8f3t4" {
		t.Fatalf("re-encode: %q", enc)
	}
}

func TestScriptAddressExtraction(t *testing.T) {
	var h [20]byte
	h[5] = 0x99
	p2pkh := PayToPubKeyHashScript(h)
	addr, ok := ExtractAddress(p2pkh, Mainnet)
	if !ok || addr.Hash160() != h || addr.IsWitness() {
		t.Fatal("P2PKH extraction failed")
	}
	p2wpkh := PayToWitnessPubKeyHashScript(h)
	addr, ok = ExtractAddress(p2wpkh, Testnet)
	if !ok || addr.Hash160() != h || !addr.IsWitness() {
		t.Fatal("P2WPKH extraction failed")
	}
	if _, ok := ExtractAddress([]byte{0x51}, Mainnet); ok {
		t.Fatal("non-standard script extracted")
	}
}

func TestScriptID(t *testing.T) {
	var h [20]byte
	addr := NewP2PKHAddress(h, Regtest)
	if ScriptID(PayToAddrScript(addr), Regtest) != addr.String() {
		t.Fatal("standard script ID must be the address")
	}
	id := ScriptID([]byte{0x51, 0x52}, Regtest)
	if !strings.HasPrefix(id, "script:") {
		t.Fatalf("non-standard script ID %q", id)
	}
}

func TestNetworkString(t *testing.T) {
	if Mainnet.String() != "mainnet" || Testnet.String() != "testnet" || Regtest.String() != "regtest" {
		t.Fatal("network names wrong")
	}
	if Network(0).String() == "mainnet" {
		t.Fatal("zero network must not be mainnet")
	}
}

func TestParamsForNetwork(t *testing.T) {
	for _, net := range []Network{Mainnet, Testnet, Regtest} {
		p := ParamsForNetwork(net)
		if p.Network != net {
			t.Fatalf("params network %v, want %v", p.Network, net)
		}
	}
	// Distinct genesis hashes per network.
	m := MainnetParams().GenesisHeader.BlockHash()
	r := RegtestParams().GenesisHeader.BlockHash()
	if m == r {
		t.Fatal("mainnet and regtest genesis collide")
	}
}
