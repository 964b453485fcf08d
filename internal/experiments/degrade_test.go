package experiments

import "testing"

// TestDegradeRecovery pins the sweep's two ends. Same-seed chaos runs are
// bit-identical (chaos.TestChaosDeterminism), so rounds-to-reconverge is an
// equality, and a state that diverged from the loss-free oracle fails before
// any number is read.
func TestDegradeRecovery(t *testing.T) {
	res, err := RunDegrade(DegradeConfig{Seed: 7, Runs: 1, LossRates: []float64{0, 0.55}})
	if err != nil {
		t.Fatal(err)
	}
	want := []DegradeRow{
		{LossRate: 0, HealRound: 25, RecoveryAvg: 0, RecoveryMax: 0, OracleIdentical: true, FinalHeight: 60},
		{LossRate: 0.55, HealRound: 25, RecoveryAvg: 9, RecoveryMax: 9, OracleIdentical: true, FinalHeight: 60},
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(want))
	}
	for i, row := range res.Rows {
		if row != want[i] {
			t.Errorf("row %d: %+v, want %+v", i, row, want[i])
		}
	}
}
