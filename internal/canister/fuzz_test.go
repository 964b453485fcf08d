package canister_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/experiments"
)

// goldenSnapshotBytes loads the checked-in snapshot fixture as fuzz seed
// material (the richest known-valid input).
func goldenSnapshotBytes(f *testing.F) []byte {
	f.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden_snapshot_v1.bin"))
	if err != nil {
		f.Fatalf("reading golden snapshot fixture: %v", err)
	}
	return data
}

// FuzzStatecodecDecode drives RestoreSnapshot with arbitrary bytes: it must
// never panic, and it must never silently succeed — any accepted input must
// re-encode byte-identically (so a mutated-but-accepted snapshot, the torn
// state nightmare, is a fuzz failure, not a quiet divergence).
func FuzzStatecodecDecode(f *testing.F) {
	golden := goldenSnapshotBytes(f)
	f.Add(golden)
	f.Add(golden[:len(golden)/2]) // truncation
	flipped := append([]byte(nil), golden...)
	flipped[len(flipped)/3] ^= 0x10 // bit-flip
	f.Add(flipped)
	f.Add(withReservedByte(golden, 1)) // checksum-valid, reserved byte set
	f.Add([]byte{})
	f.Add([]byte("icbtc/snapshot\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := canister.RestoreSnapshot(data)
		if err != nil {
			return // clean rejection is the expected path
		}
		again, err := c.Snapshot()
		if err != nil {
			t.Fatalf("restored canister cannot re-snapshot: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("decoder silently accepted a non-canonical snapshot: %d bytes in, %d bytes back",
				len(data), len(again))
		}
	})
}

// capturedFrame builds one real delta-stream frame (block + delta + anchor
// events) through a feeder, as encoded seed material.
func capturedFrame(f *testing.F) []byte {
	f.Helper()
	feeder := experiments.NewFeeder(btc.Regtest, 2, 515)
	var raw []byte
	feeder.Canister.SetStreamSink(func(fr *canister.Frame) {
		fr.Seq = 1
		raw = canister.EncodeFrame(fr)
	})
	script := btc.PayToAddrScript(btc.NewP2PKHAddress([20]byte{0x31}, btc.Regtest))
	for i := 0; i < 4 && raw == nil; i++ {
		if _, err := feeder.FeedBlock([]experiments.TxSpec{{Outputs: experiments.PayN(script, 2, 600)}}); err != nil {
			f.Fatal(err)
		}
	}
	if raw == nil {
		f.Fatal("feeder produced no frame")
	}
	return raw
}

// FuzzFrameDecode drives DecodeFrame with arbitrary bytes: no panics, no
// silent acceptance — an accepted frame must re-encode byte-identically.
func FuzzFrameDecode(f *testing.F) {
	frame := capturedFrame(f)
	f.Add(frame)
	f.Add(frame[:len(frame)/2]) // truncation
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)/2] ^= 0x01 // bit-flip
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(canister.EncodeFrame(&canister.Frame{Seq: 7, TipHeight: 3, AnchorHeight: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := canister.DecodeFrame(data)
		if err != nil {
			return
		}
		if !bytes.Equal(canister.EncodeFrame(fr), data) {
			t.Fatalf("frame decoder silently accepted a non-canonical frame (%d bytes)", len(data))
		}
	})
}
