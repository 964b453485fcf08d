package utxo

import (
	"bytes"
	"fmt"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/statecodec"
)

func decodeSetParallel(t *testing.T, snap []byte, workers int) (*Set, error) {
	t.Helper()
	d, err := statecodec.NewDecoder(snap, codecTestMagic, codecTestVersion)
	if err != nil {
		t.Fatal(err)
	}
	s, err := DecodeSetParallel(d, workers)
	if err != nil {
		return nil, err
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	return s, nil
}

// TestDecodeSetParallelEquivalence pins the sharded decoder to the serial
// one: identical re-encoded bytes (hence identical outpoint map, interned
// table, ordered buckets, balances) at every worker count,
// on set shapes from empty to many-bucket.
func TestDecodeSetParallelEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		s := buildRandomSet(seed, 600)
		snap := encodeSet(s)
		serial := decodeSet(t, snap)
		want := encodeSet(serial)
		for _, workers := range []int{1, 2, 3, 4, 8, 16} {
			got, err := decodeSetParallel(t, snap, workers)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if !bytes.Equal(encodeSet(got), want) {
				t.Fatalf("seed %d workers %d: parallel decode diverged from serial", seed, workers)
			}
			if got.Len() != serial.Len() || got.AddressCount() != serial.AddressCount() ||
				got.InternedScripts() != serial.InternedScripts() {
				t.Fatalf("seed %d workers %d: derived counters diverged", seed, workers)
			}
		}
	}

	// Empty set round-trips too.
	empty := New(btc.Regtest)
	snap := encodeSet(empty)
	got, err := decodeSetParallel(t, snap, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.AddressCount() != 0 {
		t.Fatal("empty set decoded non-empty")
	}
}

// TestDecodeSetParallelRejectsCorruption flips every byte of a small
// snapshot's payload region and requires the parallel decoder to reject
// whatever the serial decoder rejects (the framing checksum catches most
// flips before either decoder runs; this exercises the structural checks
// via targeted truncations instead).
func TestDecodeSetParallelRejectsCorruption(t *testing.T) {
	s := buildRandomSet(5, 120)
	snap := encodeSet(s)

	// Truncations at every length (re-framed so the checksum passes and the
	// structural checks do the rejecting).
	payload := snap[len(codecTestMagic)+2 : len(snap)-4]
	for cut := 0; cut < len(payload); cut += 7 {
		e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, cut)
		e.Raw(payload[:cut])
		reframed := e.Finish()

		_, errSerial := func() (*Set, error) {
			d, err := statecodec.NewDecoder(reframed, codecTestMagic, codecTestVersion)
			if err != nil {
				return nil, err
			}
			set, err := DecodeSet(d)
			if err != nil {
				return nil, err
			}
			return set, d.Close()
		}()
		_, errParallel := func() (*Set, error) {
			d, err := statecodec.NewDecoder(reframed, codecTestMagic, codecTestVersion)
			if err != nil {
				return nil, err
			}
			set, err := DecodeSetParallel(d, 4)
			if err != nil {
				return nil, err
			}
			return set, d.Close()
		}()
		if (errSerial == nil) != (errParallel == nil) {
			t.Fatalf("cut %d: accept/reject divergence: serial=%v parallel=%v", cut, errSerial, errParallel)
		}
	}
}

// FuzzDecodeSetParallelDiff holds the sharded decoder to the serial one on
// mutated snapshots: the fuzzer mutates the payload, which is re-framed so
// the checksum passes and the decoders' own structural checks do the
// judging. Both must reject, or both accept and re-encode to the same bytes.
func FuzzDecodeSetParallelDiff(f *testing.F) {
	f.Add(payloadOf(encodeSet(New(btc.Regtest))))
	f.Add(payloadOf(encodeSet(buildRandomSet(3, 40))))
	f.Add(payloadOf(encodeSet(buildRandomSet(9, 300))))
	f.Add(payloadOf(duplicateOutpointSnapshot()))
	f.Fuzz(func(t *testing.T, payload []byte) {
		e := statecodec.NewEncoder(codecTestMagic, codecTestVersion, len(payload))
		e.Raw(payload)
		snap := e.Finish()
		serial, errSerial := decodeSetParallel(t, snap, 1)
		for _, workers := range []int{2, 5} {
			parallel, errParallel := decodeSetParallel(t, snap, workers)
			if (errSerial == nil) != (errParallel == nil) {
				t.Fatalf("workers=%d: accept/reject divergence: serial=%v parallel=%v", workers, errSerial, errParallel)
			}
			if errSerial == nil && !bytes.Equal(encodeSet(serial), encodeSet(parallel)) {
				t.Fatalf("workers=%d: both accept, re-encodings differ", workers)
			}
		}
	})
}
