package utxo

import (
	"bytes"
	"fmt"
	"reflect"
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

// TestDecodedBucketsInPageOrder: both decoders lay every bucket out in page
// order in the table's arena — the highest height group at the bucket's
// lowest ref, each lower group right after it, each group forward — so a
// page walk streams forward through memory: a hydrated bucket's refs, read
// in page order, are consecutive and ascending. The set still re-encodes to
// the bytes it was decoded from and pages as the set it was encoded from.
func TestDecodedBucketsInPageOrder(t *testing.T) {
	src := buildRandomSet(5, 4000) // ~330 entries a bucket over 300 heights: groups of several
	snap := encodeSet(src)
	for _, workers := range []int{1, 2, 3} {
		s, err := decodeSetParallel(t, snap, workers) // one worker is DecodeSet
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeSet(s), snap) {
			t.Fatalf("workers %d: the decoded set re-encodes to other bytes", workers)
		}
		multi := 0
		for key, b := range s.byAddress {
			next := b.groups[len(b.groups)-1].refs[0]
			for k := len(b.groups) - 1; k >= 0; k-- {
				g := b.groups[k].refs
				for i, ref := range g {
					if ref != next {
						t.Fatalf("workers %d, bucket %s: group %d of %d holds ref %d at %d, want %d", workers, key, k, len(b.groups), ref, i, next)
					}
					if i > 0 && cmpOutPoint(&s.table.at(g[i-1]).op, &s.table.at(ref).op) >= 0 {
						t.Fatalf("workers %d, bucket %s: group %d is not forward", workers, key, k)
					}
					next++
				}
				if len(g) > 1 {
					multi++
				}
			}
			want, _, _, _ := src.MergedPage(key, nil, nil, nil, b.count)
			got, _, _, _ := s.MergedPage(key, nil, nil, nil, b.count)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers %d, bucket %s: the decoded set pages otherwise", workers, key)
			}
		}
		if multi == 0 {
			t.Fatal("no group holds two entries: the test is vacuous")
		}
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
// A set they accept must then spend down to nothing: every outpoint it
// lists comes out of the bucket its script's key names, with the index
// consistent afterwards, so an entry filed under another key cannot pass.
func FuzzDecodeSetParallelDiff(f *testing.F) {
	f.Add(payloadOf(encodeSet(New(btc.Regtest))))
	f.Add(payloadOf(encodeSet(buildRandomSet(3, 40))))
	f.Add(payloadOf(encodeSet(buildRandomSet(9, 300))))
	f.Add(payloadOf(duplicateOutpointSnapshot()))
	f.Add(payloadOf(twoBucketSnapshot(false, true, 1, 2)))
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
		if errSerial != nil {
			return
		}
		var ops []btc.OutPoint
		serial.ForEach(func(u UTXO) bool {
			ops = append(ops, u.OutPoint)
			return true
		})
		for _, op := range ops {
			if _, err := serial.Remove(op); err != nil {
				t.Fatalf("spending accepted entry %s: %v", op, err)
			}
		}
		checkIndexInvariants(t, serial)
		if serial.Len() != 0 || serial.AddressCount() != 0 {
			t.Fatalf("spent every entry, yet %d entries and %d buckets remain", serial.Len(), serial.AddressCount())
		}
	})
}
