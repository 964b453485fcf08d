package obs_test

import (
	"bytes"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/experiments"
	"icbtc/internal/obs"
	"icbtc/internal/statecodec"
)

// snapshotMagic and snapshotVersion are snapshot.go's, spelled again because
// this package cannot see them; FuzzMetricsSnapshotDecodeReframed checks them
// against a real encoding.
const (
	snapshotMagic          = "icbtc/obs-snapshot\n"
	snapshotVersion uint16 = 1
)

// metricsEncoding is a canister's get_metrics answer after a few blocks:
// counters, gauges, histograms and a labeled family, as a client receives
// them.
func metricsEncoding(tb testing.TB) []byte {
	tb.Helper()
	f := experiments.NewFeeder(btc.Regtest, 2, 77)
	script := btc.PayToAddrScript(btc.NewP2PKHAddress([20]byte{0x77}, btc.Regtest))
	for i := 0; i < 4; i++ {
		if _, err := f.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 3, 700)}}); err != nil {
			tb.Fatal(err)
		}
	}
	res, err := f.Canister.GetMetrics(f.QueryCtx())
	if err != nil {
		tb.Fatal(err)
	}
	return res.Encoded
}

// FuzzMetricsSnapshotDecodeReframed hands DecodeSnapshot arbitrary payloads
// behind a valid checksum: each input is sealed under the snapshot magic and
// version, so the decoder's own checks do the judging. DecodeSnapshot must
// return rather than panic, and a snapshot it accepts must re-encode to the
// bytes it was decoded from, and so must Merge of it alone: a merge sums
// equal names and sorts, so a decoded snapshot whose names repeat or run out
// of order would merge into other bytes. Every histogram it accepts must be
// one a registry could have built.
func FuzzMetricsSnapshotDecodeReframed(f *testing.F) {
	seal := func(payload []byte) []byte {
		e := statecodec.NewEncoder(snapshotMagic, snapshotVersion, len(payload))
		e.Raw(payload)
		return e.Finish()
	}
	payloadOf := func(sealed []byte) []byte { return sealed[len(snapshotMagic)+2 : len(sealed)-4] }
	metrics := metricsEncoding(f)
	if !bytes.Equal(seal(payloadOf(metrics)), metrics) {
		f.Fatal("resealing a get_metrics payload does not give it back: magic or framing moved")
	}
	f.Add(payloadOf(metrics))
	f.Add(payloadOf((&obs.Snapshot{}).Encode()))
	// Names out of order or repeated, which the decoder once accepted: the
	// merge sorts and sums them into other bytes.
	f.Add(payloadOf((&obs.Snapshot{Gauges: []obs.GaugePoint{{Name: "tip", Value: 1}, {Name: "anchor", Value: 2}}}).Encode()))
	f.Add(payloadOf((&obs.Snapshot{Counters: []obs.CounterPoint{{Name: "calls", Value: 1}, {Name: "calls", Value: 2}}}).Encode()))
	f.Add(payloadOf((&obs.Snapshot{Families: []obs.FamilyPoint{{Name: "calls", Label: "method",
		Values: []obs.LabelValue{{Value: "get_utxos", Count: 1}, {Value: "get_balance", Count: 2}}}}}).Encode()))
	// Histograms the decoder once accepted: no boundary (Quantile then read
	// Bounds[-1]), boundaries not ascending, and a count that is not the sum
	// of the buckets.
	for _, h := range []obs.HistogramPoint{
		{Name: "h", Counts: []uint64{1}, Count: 1},
		{Name: "h", Bounds: []int64{10, 10}, Counts: []uint64{1, 0, 0}, Count: 1},
		{Name: "h", Bounds: []int64{10}, Counts: []uint64{1, 2}, Count: 4},
	} {
		f.Add(payloadOf((&obs.Snapshot{Histograms: []obs.HistogramPoint{h}}).Encode()))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		data := seal(payload)
		s, err := obs.DecodeSnapshot(data)
		if err != nil {
			return // clean rejection is the expected path
		}
		for _, h := range s.Histograms {
			// A registry could have built it: Histogram panics on
			// boundaries newHistogram refuses.
			obs.NewRegistry().Histogram(h.Name, h.Bounds)
			var total uint64
			for _, c := range h.Counts {
				total += c
			}
			if total != h.Count {
				t.Fatalf("histogram %s: count %d, buckets hold %d", h.Name, h.Count, total)
			}
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Fatalf("decoder accepted a non-canonical snapshot (%d bytes)", len(data))
		}
		merged, err := obs.Merge(s)
		if err != nil {
			t.Fatalf("an accepted snapshot does not merge: %v", err)
		}
		if !bytes.Equal(merged.Encode(), data) {
			t.Fatalf("an accepted snapshot merges into other bytes (%d bytes)", len(data))
		}
	})
}
