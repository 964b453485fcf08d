package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"icbtc/internal/core"
	"icbtc/internal/ic"
)

// updateGolden rewrites testdata/contracts.golden from the current code. Run
//
//	go test ./examples -run TestContractsGolden -update-golden
//
// only for a change that is meant to move a line. Addresses, balances,
// states and virtual latencies follow from the seed; a txid also depends on
// the joint nonces the threshold committee deals from its RNG (one signing
// round per input, in input order), so a PR that moves one names the draw
// that moved (an input more or fewer, a signature before it, a different
// selection order).
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/contracts.golden")

// TestContractsGolden runs every contract and holds the output byte for
// byte: the contracts are the only end-to-end callers of what the paper's
// introduction is about — a threshold-derived address, get_utxos with
// confirmations, a threshold-signed send_transaction — and they run on the
// virtual clock from fixed seeds, at any GOMAXPROCS.
func TestContractsGolden(t *testing.T) {
	var out, stderr bytes.Buffer
	if code := cli(nil, &out, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	path := filepath.Join("testdata", "contracts.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, out.Len())
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update-golden): %v", err)
	}
	want, got := strings.Split(string(golden), "\n"), strings.Split(out.String(), "\n")
	for i := 0; i < len(want) || i < len(got); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Fatalf("contracts moved; first difference at %s:%d\n want: %s\n  got: %s\n"+
				"if the change is intentional, regenerate with -update-golden and explain the line that moved",
				path, i+1, w, g)
		}
	}
}

func TestUnknownContractIsAnError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-run", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown contract printed to stdout: %q", stdout.String())
	}
	for _, c := range contracts {
		if !strings.Contains(stderr.String(), c.name) {
			t.Errorf("error does not name valid contract %q: %s", c.name, stderr.String())
		}
	}
}

// TestEscrowSettlesOnce: between a payout and its confirmation the deposit
// is still visible to get_balance with two confirmations. check_funding used
// to flip a released escrow back to "funded" there, and the refund that
// followed threshold-signed a second spend of the same deposit to the buyer.
func TestEscrowSettlesOnce(t *testing.T) {
	// A 4-replica subnet with short rounds: the state machine is what is
	// under test, and the 13-replica key generation is most of a full run.
	cfg := ic.DefaultConfig()
	cfg.N = 4
	cfg.DegradedRoundProb = 0
	cfg.FinalizeBase = 300 * time.Millisecond
	cfg.FinalizeJitter = 200 * time.Millisecond
	integ, _, err := fundedEscrow(io.Discard, core.Options{Seed: 7, BitcoinNodes: 5, Subnet: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := integ.CallCanister("escrow", "release", nil); err != nil {
		t.Fatalf("release: %v", err)
	}
	res, err := integ.CallCanister("escrow", "check_funding", int64(escrowDeposit))
	if err != nil {
		t.Fatal(err)
	}
	if funded, _ := res.Value.(bool); !funded {
		t.Fatal("the deposit is no longer visible: the payout confirmed before the re-check, so the test exercises nothing")
	}
	if res, err := integ.CallCanister("escrow", "refund", nil); err == nil {
		t.Fatalf("refund after release signed a second payout: %v", res.Value)
	}
	if res, err = integ.CallCanister("escrow", "state", nil); err != nil || res.Value != "released" {
		t.Fatalf("state %v (err %v), want released", res.Value, err)
	}
}
