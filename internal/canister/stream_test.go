package canister

import (
	"bytes"
	"strings"
	"testing"

	"icbtc/internal/btc"
	"icbtc/internal/ic"
	"icbtc/internal/statecodec"
)

// collectFrames installs a sink that wire-encodes every frame (asserting
// codec determinism on the way) and returns the decoded copies a consumer
// would see.
func collectFrames(t *testing.T, c *BitcoinCanister) *[]*Frame {
	t.Helper()
	frames := &[]*Frame{}
	seq := uint64(0)
	c.SetStreamSink(func(f *Frame) {
		seq++
		f.Seq = seq
		raw := EncodeFrame(f)
		decoded, err := DecodeFrame(raw)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", seq, err)
		}
		if again := EncodeFrame(decoded); !bytes.Equal(raw, again) {
			t.Fatalf("frame %d: encode→decode→encode changed %d -> %d bytes", seq, len(raw), len(again))
		}
		if decoded.Seq != f.Seq || decoded.TipHeight != f.TipHeight ||
			decoded.AnchorHeight != f.AnchorHeight || len(decoded.Events) != len(f.Events) {
			t.Fatalf("frame %d: decoded envelope mismatch: %+v vs %+v", seq, decoded, f)
		}
		*frames = append(*frames, decoded)
	})
	return frames
}

// queryProbeDigests summarizes the full read API of a canister for one
// address as canonical digests, so two canisters can be compared exactly.
func queryProbeDigests(t *testing.T, c *BitcoinCanister, address string) [][32]byte {
	t.Helper()
	ctx := func() *ic.CallContext { return ic.NewCallContext(ic.KindQuery, time0) }
	var out [][32]byte
	v, err := c.GetUTXOs(ctx(), GetUTXOsArgs{Address: address})
	out = append(out, ic.ResponseDigest(v, err))
	bal, err := c.GetBalance(ctx(), GetBalanceArgs{Address: address})
	out = append(out, ic.ResponseDigest(bal, err))
	fees, err := c.GetCurrentFeePercentiles(ctx())
	out = append(out, ic.ResponseDigest(fees, err))
	hdrs, err := c.GetBlockHeaders(ctx(), GetBlockHeadersArgs{})
	out = append(out, ic.ResponseDigest(hdrs, err))
	return out
}

// TestStreamReplicaFollowsAuthoritative hydrates a replica from a genesis
// snapshot and feeds it the authoritative canister's delta frames payload
// by payload: after every frame the replica must answer the whole read API
// identically to the authoritative canister, through anchor advances
// included.
func TestStreamReplicaFollowsAuthoritative(t *testing.T) {
	r := newRig(t, 71)
	frames := collectFrames(t, r.can)

	snap, err := r.can.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	replica, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	replica.WarmQueryState()

	addr := r.minerAddr().String()
	applied := 0
	// Mine in bursts so individual payloads carry multiple blocks and
	// anchor advances interleave with block attachment.
	for _, n := range []int{3, 5, 4, 8} {
		if _, err := r.miner.MineChain(n, 0); err != nil {
			t.Fatal(err)
		}
		r.feedChain()
		for ; applied < len(*frames); applied++ {
			f := (*frames)[applied]
			if err := replica.ApplyFrame(f); err != nil {
				t.Fatalf("apply frame %d: %v", f.Seq, err)
			}
			if got, want := replica.TipHeight(), r.can.TipHeight(); applied == len(*frames)-1 && got != want {
				t.Fatalf("frame %d: replica tip %d, authoritative %d", f.Seq, got, want)
			}
		}
		a := queryProbeDigests(t, r.can, addr)
		b := queryProbeDigests(t, replica, addr)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("after %d blocks: probe %d diverged between authoritative and replica", n, i)
			}
		}
		if replica.AnchorHeight() != r.can.AnchorHeight() {
			t.Fatalf("anchor: replica %d, authoritative %d", replica.AnchorHeight(), r.can.AnchorHeight())
		}
		if replica.StableUTXOCount() != r.can.StableUTXOCount() {
			t.Fatalf("stable set: replica %d, authoritative %d", replica.StableUTXOCount(), r.can.StableUTXOCount())
		}
		if replica.UnstableBlockCount() != r.can.UnstableBlockCount() {
			t.Fatalf("unstable blocks: replica %d, authoritative %d", replica.UnstableBlockCount(), r.can.UnstableBlockCount())
		}
	}
	if r.can.AnchorHeight() == 0 {
		t.Fatal("workload never advanced the anchor; test is vacuous")
	}
	if applied == 0 {
		t.Fatal("no frames were published")
	}
}

// TestStreamFrameOutOfOrder asserts that a replica rejects a frame whose
// events do not apply to its current state (a gap in the stream) instead of
// silently corrupting itself.
func TestStreamFrameOutOfOrder(t *testing.T) {
	r := newRig(t, 72)
	frames := collectFrames(t, r.can)
	snap, err := r.can.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	replica, err := RestoreSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.miner.MineChain(4, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	if len(*frames) < 2 {
		t.Fatalf("want >= 2 frames, got %d", len(*frames))
	}
	// Skipping frame 0 leaves frame 1's parent missing.
	if err := replica.ApplyFrame((*frames)[1]); err == nil {
		t.Fatal("gap in the stream applied without error")
	}
	// The in-order stream still applies.
	for _, f := range *frames {
		if err := replica.ApplyFrame(f); err != nil {
			t.Fatalf("in-order apply of frame %d: %v", f.Seq, err)
		}
	}
}

// TestStreamNoSinkNoOverhead pins that a canister without a sink neither
// buffers events nor publishes frames.
func TestStreamNoSinkNoOverhead(t *testing.T) {
	r := newRig(t, 73)
	if _, err := r.miner.MineChain(3, 0); err != nil {
		t.Fatal(err)
	}
	r.feedChain()
	if len(r.can.events) != 0 {
		t.Fatalf("events buffered without a sink: %d", len(r.can.events))
	}
}

// frameWithDelta hand-writes a one-event frame around delta, the bytes of the
// attached block's delta after its height — what no encoder does but anyone
// able to compute a CRC can.
func frameWithDelta(delta func(e *statecodec.Encoder)) []byte {
	e := statecodec.NewEncoder(frameMagic, FrameVersion, 0)
	e.U64(1)     // seq
	e.I64(1)     // tip
	e.I64(0)     // anchor
	e.U8(0)      // health state
	e.I64(0)     // health height
	e.Uvarint(0) // pending blocks
	e.Uvarint(0) // peers
	e.Uvarint(1) // events
	e.U8(uint8(EventBlockAttached))
	encodeHeader(e, &btc.BlockHeader{})
	e.Bytes([]byte{0})
	e.I64(1) // delta height
	delta(e)
	return e.Finish()
}

// deltaCreation writes one created entry of a hand-built delta, up to its
// script.
func deltaCreation(e *statecodec.Encoder, txid0 byte) {
	e.Raw(append([]byte{txid0}, make([]byte, btc.HashSize-1)...))
	e.U32(0)
	e.I64(5)
}

// TestDecodeFrameRejectsNonCanonicalDelta: a checksum-valid frame whose delta
// lists its address keys out of order decoded, and re-encoded sorted — other
// bytes than were accepted, which no fuzzer mutating a real frame reaches
// through the CRC. The frame decoder must refuse what no encoder writes.
func TestDecodeFrameRejectsNonCanonicalDelta(t *testing.T) {
	frame := func(keys ...string) []byte {
		return frameWithDelta(func(e *statecodec.Encoder) {
			e.Uvarint(uint64(len(keys)))
			for i, key := range keys {
				e.String(key)
				e.Uvarint(1)
				deltaCreation(e, byte(i))
				e.Bytes([]byte{0x51})
			}
			e.Uvarint(0) // spent lists
		})
	}
	canonical := frame("aaa", "zzz")
	fr, err := DecodeFrame(canonical)
	if err != nil {
		t.Fatalf("hand-built canonical frame: %v", err)
	}
	if !bytes.Equal(EncodeFrame(fr), canonical) {
		t.Fatal("hand-built canonical frame re-encodes differently")
	}
	_, err = DecodeFrame(frame("zzz", "aaa"))
	if err == nil || !strings.Contains(err.Error(), `created key "aaa" out of order`) {
		t.Fatalf("frame with descending delta keys: %v", err)
	}
}

// TestDecodeFrameMalformedDeltaEntryAfterValidOnes: a frame is untrusted
// input, and nothing between DecodeFrame and a replica's worker recovers from
// a panic. A delta list that goes wrong at its sixth entry, after five the
// decoder has already taken, must come back as statecodec's error.
func TestDecodeFrameMalformedDeltaEntryAfterValidOnes(t *testing.T) {
	_, err := DecodeFrame(frameWithDelta(func(e *statecodec.Encoder) {
		e.Uvarint(1) // one created list
		e.String("aaa")
		e.Uvarint(6)
		for i := byte(1); i <= 5; i++ {
			deltaCreation(e, i)
			e.Bytes([]byte{0x51})
		}
		deltaCreation(e, 6)
		e.Uvarint(70000) // a script length over the limit
	}))
	if err == nil || !strings.Contains(err.Error(), "statecodec: count 70000 exceeds limit 65536") {
		t.Fatalf("frame with an oversized script in its delta's sixth entry: %v", err)
	}
}
