package experiments

import "testing"

// TestReadPathOverlaySpeedup pins the tentpole's acceptance criteria at the
// mainnet-shaped configuration (δ=144): the overlay read path no longer
// scales linearly with unstable depth and beats the naive-replay oracle at
// full depth, in metered instructions: ≥ 5× on get_balance, ≥ 2.5× on
// get_utxos (whose page encoding both paths pay alike). At depth 0 both
// paths serve a balance from the stable set alone, so they cost the same.
func TestReadPathOverlaySpeedup(t *testing.T) {
	res, err := RunReadPath(7)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.BalanceSpeedupAtFullDepth(); got < 5 {
		t.Errorf("get_balance instruction speedup at depth δ-1 = %.1fx, want >= 5x", got)
	}
	if got := res.UTXOsSpeedupAtFullDepth(); got < 2.5 {
		t.Errorf("get_utxos instruction speedup at depth δ-1 = %.1fx, want >= 2.5x", got)
	}
	// The oracle's cost is linear in depth (the §III-C complexity); the
	// overlay's must be essentially flat.
	if got := res.OracleDepthScaling(); got < 4 {
		t.Errorf("oracle depth scaling %.1fx, expected strongly depth-dependent (>= 4x)", got)
	}
	if got := res.OverlayDepthScaling(); got > 1.5 {
		t.Errorf("overlay depth scaling %.2fx, want <= 1.5x (depth-independent)", got)
	}
	if last := res.Rows[len(res.Rows)-1]; last.Depth != 0 || last.BalanceOracle != last.BalanceOverlay {
		t.Errorf("at depth %d the balance paths differ: oracle=%d overlay=%d",
			last.Depth, last.BalanceOracle, last.BalanceOverlay)
	}
	// A repeated balance query is served from the coherent cache at a
	// fraction of even the overlay's merge cost.
	if res.BalanceCacheHitInstr >= res.Rows[0].BalanceOverlay {
		t.Errorf("cache hit cost %d not below overlay merge cost %d",
			res.BalanceCacheHitInstr, res.Rows[0].BalanceOverlay)
	}
	// Building deltas at ingestion must stay a small fraction of ingestion
	// work — the overlay shifts cost off the read path without making
	// block processing meaningfully more expensive.
	if res.DeltaBuildShare > 0.15 {
		t.Errorf("delta build share %.1f%% of ingestion, want <= 15%%", res.DeltaBuildShare*100)
	}
}
