package main

import (
	"testing"
	"time"
)

// tinyScale keeps every code path of the full benchmark at a size the tests
// run in seconds.
var tinyScale = scale{
	preload:    45,
	txs:        40,
	setupReps:  2,
	syncBatch:  10,
	hotAddrs:   16,
	hotWindow:  4096,
	coldWindow: 1024,
	tipWarm:    2,
	tipPeriod:  20 * time.Millisecond,
	queryRate:  2000,
	probeTip:   6,
	probeReps:  1,
	signReps:   1,
	probeSlice: 0.02,
}

func TestFixtureIsDeterministic(t *testing.T) {
	build := func(seed int64) *Fixture {
		fx, err := BuildFixture(seed, 30, 40)
		if err != nil {
			t.Fatal(err)
		}
		return fx
	}
	a, again, other := build(7), build(7), build(8)
	if a.WireDigest() != again.WireDigest() || a.Ledger.Digest() != again.Ledger.Digest() {
		t.Fatal("the same seed gave different wire bytes or a different ledger")
	}
	if a.WireDigest() == other.WireDigest() || a.Ledger.Digest() == other.Ledger.Digest() {
		t.Fatal("another seed gave the same wire bytes or the same ledger")
	}
	// A longer chain from the same seed extends the shorter one.
	longer, err := BuildFixture(7, 31, 40)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Wire {
		if string(a.Wire[i]) != string(longer.Wire[i]) {
			t.Fatalf("block %d differs between chain lengths", i+1)
		}
	}
}

func TestLedgerTracksSpends(t *testing.T) {
	fx, err := BuildFixture(3, 30, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Every block creates 40*2+1 outputs and spends at most 2 of every 3
	// transactions' worth; the live count must sit strictly between.
	live := fx.Ledger.LiveUTXOs(30)
	if max, min := 30*81, 30*(81-27); live >= max || live < min {
		t.Fatalf("live UTXOs after 30 blocks = %d, want in [%d, %d)", live, min, max)
	}
	var total int
	for a := range fx.Addresses {
		_, c := fx.Ledger.At(a, 30)
		total += c
	}
	// The population holds everything but the coinbase outputs still unspent.
	if total > live || total < live-30 {
		t.Fatalf("population holds %d UTXOs of %d live", total, live)
	}
	if b, c := fx.Ledger.At(0, 0); b != 0 || c != 0 {
		t.Fatalf("address 0 holds %d sat in %d UTXOs before the first block", b, c)
	}
}

// The checker is proven to check: with one ledger entry off by a satoshi
// per address, every workload must report failed operations.
func TestCorruptLedgerFailsEveryWorkload(t *testing.T) {
	for _, d := range workloadDefs {
		fx, err := BuildFixture(5, tinyScale.preload+tinyScale.tipBlocks(0.1), tinyScale.txs)
		if err != nil {
			t.Fatal(err)
		}
		for a := range fx.Ledger.history {
			for i := range fx.Ledger.history[a] {
				fx.Ledger.history[a][i].balance++
			}
		}
		res, err := runOn(d.Name, fx, 0.1, false, tinyScale, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted ledger went unnoticed (correct=%v, failed=%d of %d)", d.Name, res.Correct, res.Failed, res.Attempted)
		}
	}
}
