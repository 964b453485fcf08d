package canister_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/canister"
	"icbtc/internal/experiments"
	"icbtc/internal/statecodec"
	"icbtc/internal/utxo"
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

// frameMagic is stream.go's, spelled again because only the bytes of a frame
// leave the package; the reframed target checks it against a real frame.
const frameMagic = "icbtc/delta-frame\n"

// framePayload strips a sealed frame down to the bytes between header and
// checksum, the part the reframed target mutates.
func framePayload(sealed []byte) []byte {
	return sealed[len(frameMagic)+2 : len(sealed)-4]
}

// reframe seals a payload the way a peer would: under the frame magic and
// version, with the checksum it computes.
func reframe(payload []byte) []byte {
	e := statecodec.NewEncoder(frameMagic, canister.FrameVersion, len(payload))
	e.Raw(payload)
	return e.Finish()
}

// goldenNextFrame is the frame that follows the golden snapshot's state: one
// more block on the chain the fixture was cut from, whose arrival stabilizes
// another (block, delta and anchor events that all apply).
func goldenNextFrame(f *testing.F) []byte {
	f.Helper()
	feeder, _ := buildSnapshotFeeder(f)
	var raw []byte
	feeder.Canister.SetStreamSink(func(fr *canister.Frame) {
		fr.Seq = 1
		raw = canister.EncodeFrame(fr)
	})
	script := btc.PayToAddrScript(btc.NewP2PKHAddress([20]byte{0x30}, btc.Regtest))
	if _, err := feeder.FeedBlock([]experiments.TxSpec{{Inputs: 2, Outputs: experiments.PayN(script, 2, 800)}}); err != nil {
		f.Fatal(err)
	}
	if raw == nil {
		f.Fatal("feeder produced no frame")
	}
	return raw
}

// FuzzFrameDecodeReframed hands the frame decoder arbitrary bytes behind a
// valid checksum — what a peer can send, and what FuzzFrameDecode, mutating
// sealed bytes, almost never gets past the CRC to try. DecodeFrame must return
// rather than panic; a frame it accepts is spelled the one way the encoder
// spells it; and ApplyFrame of an accepted frame on a replica hydrated from
// the golden snapshot returns, an error or nil, without panicking.
func FuzzFrameDecodeReframed(f *testing.F) {
	golden := goldenSnapshotBytes(f)
	captured, next := capturedFrame(f), goldenNextFrame(f)
	for _, sealed := range [][]byte{captured, next} {
		if !bytes.Equal(reframe(framePayload(sealed)), sealed) {
			f.Fatal("reframing a real frame's payload does not give the frame back: magic or framing moved")
		}
		f.Add(framePayload(sealed))
	}
	// The second seed is worth its name only while it applies cleanly.
	if fr, err := canister.DecodeFrame(next); err != nil {
		f.Fatal(err)
	} else if replica, err := canister.RestoreSnapshot(golden); err != nil {
		f.Fatal(err)
	} else if err := replica.ApplyFrame(fr); err != nil {
		f.Fatalf("the frame after the golden state does not apply to it: %v", err)
	}
	// The frame's fixed fields, then whatever the case writes for its events.
	crafted := func(events func(e *statecodec.Encoder)) []byte {
		e := statecodec.NewEncoder(frameMagic, canister.FrameVersion, 0)
		e.U64(1) // seq
		e.I64(15)
		e.I64(9)
		e.U8(0) // health
		e.I64(15)
		e.Uvarint(0)
		e.Uvarint(0)
		events(e)
		return framePayload(e.Finish())
	}
	// An event count of one spelled in two varint bytes.
	f.Add(crafted(func(e *statecodec.Encoder) {
		e.Raw([]byte{0x81, 0x00})
		e.U8(uint8(canister.EventAnchorAdvanced))
		e.Raw(make([]byte, btc.HashSize))
	}))
	// A block event whose RawBlock length runs past the frame.
	f.Add(crafted(func(e *statecodec.Encoder) {
		e.Uvarint(1)
		e.U8(uint8(canister.EventBlockAttached))
		e.Raw(make([]byte, 80))
		e.Uvarint(1 << 20)
		e.Raw([]byte{1, 2, 3})
	}))
	// An unknown event kind.
	f.Add(crafted(func(e *statecodec.Encoder) {
		e.Uvarint(1)
		e.U8(9)
	}))
	// An anchor event naming a hash the replica's tree does not hold.
	f.Add(crafted(func(e *statecodec.Encoder) {
		e.Uvarint(1)
		e.U8(uint8(canister.EventAnchorAdvanced))
		e.Raw(bytes.Repeat([]byte{0xab}, btc.HashSize))
	}))

	f.Fuzz(func(t *testing.T, payload []byte) {
		data := reframe(payload)
		fr, err := canister.DecodeFrame(data)
		if err != nil {
			return
		}
		if !bytes.Equal(canister.EncodeFrame(fr), data) {
			t.Fatalf("frame decoder silently accepted a non-canonical frame (%d bytes)", len(data))
		}
		replica, err := canister.RestoreSnapshot(golden)
		if err != nil {
			t.Fatal(err)
		}
		_ = replica.ApplyFrame(fr) // refusing is fine; only a panic fails
	})
}

// keyRequest is one drawn request: a registry method and the union of every
// argument field a method reads. Which fields count is the method's business
// (arg and fields say); the rest of the tuple is noise the key must ignore.
type keyRequest struct {
	method        uint8
	address       string
	network, minC int64
	page          []byte
	limit         int64
}

func (r keyRequest) desc() *canister.MethodDesc {
	methods := canister.Methods()
	return methods[int(r.method)%len(methods)]
}

// arg builds the typed argument the method takes from the tuple.
func (r keyRequest) arg() any {
	switch r.desc().Name {
	case "get_utxos":
		return canister.GetUTXOsArgs{Address: r.address, Network: btc.Network(r.network), MinConfirmations: r.minC, Page: utxo.PageToken(r.page), Limit: int(r.limit)}
	case "get_balance":
		return canister.GetBalanceArgs{Address: r.address, Network: btc.Network(r.network), MinConfirmations: r.minC}
	case "get_block_headers":
		return canister.GetBlockHeadersArgs{StartHeight: r.minC, EndHeight: r.limit}
	case "send_transaction":
		return canister.SendTransactionArgs{RawTx: r.page, Network: btc.Network(r.network)}
	default:
		return nil
	}
}

// fields is the test's own statement of the canonical encoding, written the
// way a reader would decode it: the name, then what the method reads, a
// string or byte field behind its length, an integer as eight bytes. It is a
// list of fields, not bytes, so comparing two of them compares requests.
func (r keyRequest) fields() []any {
	name := r.desc().Name
	switch name {
	case "get_utxos":
		return []any{name, r.address, r.network, r.minC, string(r.page), int64(int(r.limit))}
	case "get_balance":
		return []any{name, r.address, r.network, r.minC}
	case "get_block_headers":
		return []any{name, r.minC, r.limit}
	case "send_transaction":
		return []any{name, string(r.page), r.network}
	default:
		return []any{name}
	}
}

// decodeKeyFields reads a key back into fields under the layout of want (the
// layout is a function of the name, which is the first field): the encoding
// is injective exactly if this returns want for every request.
func decodeKeyFields(key []byte, want []any) (got []any, rest []byte) {
	for _, f := range want {
		switch f.(type) {
		case string:
			if len(key) < 1 || len(key) < 1+int(key[0]) {
				return got, nil
			}
			got, key = append(got, string(key[1:1+int(key[0])])), key[1+int(key[0]):]
		case int64:
			if len(key) < 8 {
				return got, nil
			}
			got, key = append(got, int64(binary.LittleEndian.Uint64(key))), key[8:]
		}
	}
	return got, key
}

// FuzzRequestKey holds the request key to its one promise — two requests
// share a key exactly if they are the same request (they would share a
// certified cached answer) — three ways: on the drawn pair directly; by
// decoding each key back into the request it was built from, which is
// injectivity for every request rather than for the pairs the fuzzer happens
// to draw; and at the bound, where a request either has a key of exactly its
// encoded length or has ErrRequestKeyTooLong and the zero key.
func FuzzRequestKey(f *testing.F) {
	method := func(name string) uint8 {
		i := slices.IndexFunc(canister.Methods(), func(m *canister.MethodDesc) bool { return m.Name == name })
		if i < 0 {
			f.Fatalf("no method %q in the registry", name)
		}
		return uint8(i)
	}
	utxos, balance, headers := method("get_utxos"), method("get_balance"), method("get_block_headers")
	fees, tip := method("get_current_fee_percentiles"), method("get_tip")
	add := func(a, b keyRequest) {
		f.Add(a.method, a.address, a.network, a.minC, a.page, a.limit,
			b.method, b.address, b.network, b.minC, b.page, b.limit)
	}
	// A field boundary shifted between address and page.
	add(keyRequest{method: utxos, address: "ab", page: []byte("c")}, keyRequest{method: utxos, address: "a", page: []byte("bc")})
	// An empty page against an absent one: the same request.
	add(keyRequest{method: utxos, address: "a", page: []byte{}}, keyRequest{method: utxos, address: "a"})
	// A nullary method against a typed one whose arguments are all zero.
	add(keyRequest{method: tip}, keyRequest{method: headers})
	add(keyRequest{method: fees}, keyRequest{method: tip})
	// The same tuple under two methods that read the same fields of it.
	add(keyRequest{method: utxos, address: "a", network: 3, minC: 2}, keyRequest{method: balance, address: "a", network: 3, minC: 2})
	// Fields only one of the two reads: equal for get_balance, not for get_utxos.
	add(keyRequest{method: balance, address: "a", limit: 1}, keyRequest{method: balance, address: "a", limit: 2})
	// An integer whose bytes spell a length and a string.
	add(keyRequest{method: headers, minC: 0x6101, limit: 7}, keyRequest{method: headers, minC: 7, limit: 0x6101})
	// Exactly at the bound, and one byte over it (get_utxos spends 36 bytes
	// besides the address).
	add(keyRequest{method: utxos, address: strings.Repeat("a", canister.MaxRequestKeyLen-36)},
		keyRequest{method: utxos, address: strings.Repeat("a", canister.MaxRequestKeyLen-35)})

	f.Fuzz(func(t *testing.T,
		m1 uint8, address1 string, network1, minC1 int64, page1 []byte, limit1 int64,
		m2 uint8, address2 string, network2, minC2 int64, page2 []byte, limit2 int64) {
		reqs := [2]keyRequest{
			{m1, address1, network1, minC1, page1, limit1},
			{m2, address2, network2, minC2, page2, limit2},
		}
		var keys [2]canister.RequestKey
		var keyed [2]bool
		for i, r := range reqs {
			want := r.fields()
			size := 0
			for _, f := range want {
				if s, ok := f.(string); ok {
					size += 1 + len(s)
				} else {
					size += 8
				}
			}
			key, err := r.desc().RequestKey(r.arg())
			if size > canister.MaxRequestKeyLen {
				if !errors.Is(err, canister.ErrRequestKeyTooLong) || key != (canister.RequestKey{}) {
					t.Fatalf("%s: a %d-byte encoding got err=%v and key %x", r.desc().Name, size, err, key.Bytes())
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: a %d-byte encoding: %v", r.desc().Name, size, err)
			}
			if len(key.Bytes()) != size {
				t.Fatalf("%s: key is %d bytes, its fields make %d", r.desc().Name, len(key.Bytes()), size)
			}
			if got, rest := decodeKeyFields(key.Bytes(), want); !slices.Equal(got, want) || len(rest) != 0 {
				t.Fatalf("%s: key %x decodes to %v + %d bytes, built from %v", r.desc().Name, key.Bytes(), got, len(rest), want)
			}
			keys[i], keyed[i] = key, true
		}
		if keyed[0] && keyed[1] {
			if same := slices.Equal(reqs[0].fields(), reqs[1].fields()); (keys[0] == keys[1]) != same {
				t.Fatalf("same request: %v, same key: %v\n%v\n%v", same, keys[0] == keys[1], reqs[0].fields(), reqs[1].fields())
			}
		}
	})
}
