package utxo

import (
	"testing"

	"icbtc/internal/btc"
)

func deltaScript(b byte) []byte { return btc.PayToPubKeyHashScript([20]byte{b}) }

func deltaAddr(b byte) string { return btc.ScriptID(deltaScript(b), btc.Regtest) }

func TestBuildBlockDeltaNetsOutInBlockSpends(t *testing.T) {
	scriptA := deltaScript(0x01)
	addrA := deltaAddr(0x01)

	// tx1 creates two outputs for A; tx2 spends the first within the block.
	tx1 := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.DoubleSHA256([]byte("in")), Vout: 0}}},
		Outputs: []btc.TxOut{{Value: 100, PkScript: scriptA}, {Value: 200, PkScript: scriptA}},
	}
	tx2 := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: tx1.TxID(), Vout: 0}}},
		Outputs: []btc.TxOut{{Value: 90, PkScript: deltaScript(0x02)}},
	}
	coinbase := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
		Outputs: []btc.TxOut{{Value: 50, PkScript: deltaScript(0x03)}},
	}
	block := &btc.Block{Transactions: []*btc.Transaction{coinbase, tx1, tx2}}

	noOwners := func(op btc.OutPoint, buf []OwnedOutput) []OwnedOutput { return buf }
	d := BuildBlockDelta(block, 9, btc.NewScriptIDCache(btc.Regtest), noOwners)

	// Only tx1's second output survives for A: the first was netted out.
	created := d.CreatedFor(addrA)
	if len(created) != 1 || created[0].Value != 200 || created[0].Height != 9 {
		t.Fatalf("created for A: %+v", created)
	}
	if _, ok := d.CreatedOutput(btc.OutPoint{TxID: tx1.TxID(), Vout: 0}); ok {
		t.Fatal("netted-out output still resolvable by descendants")
	}
	if _, ok := d.CreatedOutput(btc.OutPoint{TxID: tx1.TxID(), Vout: 1}); !ok {
		t.Fatal("surviving output not resolvable")
	}
	// No external owner resolved → no spent entries; B's in-block receipt
	// survives as a creation.
	if len(d.SpentFor(addrA)) != 0 {
		t.Fatalf("unexpected spends: %+v", d.SpentFor(addrA))
	}
	createdB := d.CreatedFor(deltaAddr(0x02))
	if len(createdB) != 1 || createdB[0].Value != 90 {
		t.Fatalf("created for B: %+v", createdB)
	}
	if got := d.EntriesFor(addrA); got != 1 {
		t.Fatalf("entries for A: %d", got)
	}
}

func TestBuildBlockDeltaAttributesExternalSpends(t *testing.T) {
	addrA := deltaAddr(0x04)
	ext := btc.OutPoint{TxID: btc.DoubleSHA256([]byte("stable")), Vout: 1}
	tx := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: ext}},
		Outputs: []btc.TxOut{{Value: 10, PkScript: deltaScript(0x05)}},
	}
	coinbase := &btc.Transaction{
		Version: 2,
		Inputs:  []btc.TxIn{{PreviousOutPoint: btc.OutPoint{TxID: btc.ZeroHash, Vout: 0xffffffff}}},
		Outputs: []btc.TxOut{{Value: 50, PkScript: deltaScript(0x06)}},
	}
	block := &btc.Block{Transactions: []*btc.Transaction{coinbase, tx}}
	d := BuildBlockDelta(block, 3, btc.NewScriptIDCache(btc.Regtest), func(op btc.OutPoint, buf []OwnedOutput) []OwnedOutput {
		if op == ext {
			buf = append(buf, OwnedOutput{AddressKey: addrA, Value: 77})
		}
		return buf
	})
	spent := d.SpentFor(addrA)
	if len(spent) != 1 || spent[0].OutPoint != ext || spent[0].Value != 77 {
		t.Fatalf("spent for A: %+v", spent)
	}
	if got := d.EntriesFor(addrA); got != 1 {
		t.Fatalf("entries for A: %d", got)
	}
	// The spend is attributed only to the resolved owner; the recipient
	// address sees a creation, not a spend.
	if len(d.SpentFor(deltaAddr(0x05))) != 0 {
		t.Fatal("spend leaked to recipient address")
	}
	if got := d.CreatedFor(deltaAddr(0x05)); len(got) != 1 || got[0].Value != 10 {
		t.Fatalf("created for recipient: %+v", got)
	}
}
