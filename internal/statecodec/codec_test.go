package statecodec

import (
	"bytes"
	"errors"
	"testing"
)

const (
	testMagic   = "statecodec-test\n"
	testVersion = uint16(3)
)

func TestRoundTripPrimitives(t *testing.T) {
	e := NewEncoder(testMagic, testVersion, 64)
	e.U8(0xab)
	e.Bool(true)
	e.Bool(false)
	e.U16(0xbeef)
	e.U32(0xdeadbeef)
	e.U64(0x0123456789abcdef)
	e.I64(-42)
	e.Uvarint(0)
	e.Uvarint(300)
	e.Uvarint(1 << 40)
	e.Raw([]byte{1, 2, 3})
	e.Bytes([]byte("hello"))
	e.Bytes(nil)
	e.String("world")
	snap := e.Finish()

	d, err := NewDecoder(snap, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.U8(); got != 0xab {
		t.Fatalf("U8 = %#x", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools did not round-trip")
	}
	if got := d.U16(); got != 0xbeef {
		t.Fatalf("U16 = %#x", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Fatalf("U32 = %#x", got)
	}
	if got := d.U64(); got != 0x0123456789abcdef {
		t.Fatalf("U64 = %#x", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	for _, want := range []uint64{0, 300, 1 << 40} {
		if got := d.Uvarint(); got != want {
			t.Fatalf("Uvarint = %d, want %d", got, want)
		}
	}
	if got := d.Raw(3); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Raw = %v", got)
	}
	if got := d.Bytes(16); string(got) != "hello" {
		t.Fatalf("Bytes = %q", got)
	}
	if got := d.Bytes(16); len(got) != 0 {
		t.Fatalf("empty Bytes = %q", got)
	}
	if got := d.String(16); got != "world" {
		t.Fatalf("String = %q", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	build := func() []byte {
		e := NewEncoder(testMagic, testVersion, 0)
		e.U64(7)
		e.String("same")
		return e.Finish()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("two identical encodings differ")
	}
}

func TestRejectsBadMagic(t *testing.T) {
	snap := NewEncoder(testMagic, testVersion, 0).Finish()
	if _, err := NewDecoder(snap, "statecodec-othr\n", testVersion); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestRejectsWrongVersion(t *testing.T) {
	snap := NewEncoder(testMagic, testVersion, 0).Finish()
	if _, err := NewDecoder(snap, testMagic, testVersion+1); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestRejectsCorruption(t *testing.T) {
	e := NewEncoder(testMagic, testVersion, 0)
	e.U64(12345)
	snap := e.Finish()

	// Flip one payload byte: the checksum must catch it.
	bad := append([]byte(nil), snap...)
	bad[len(testMagic)+3] ^= 0x40
	if _, err := NewDecoder(bad, testMagic, testVersion); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("corrupted payload: err = %v, want ErrBadChecksum", err)
	}
	// Truncation below the minimum frame.
	if _, err := NewDecoder(snap[:8], testMagic, testVersion); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated: err = %v, want ErrTruncated", err)
	}
	// Dropping trailer bytes also breaks the checksum.
	if _, err := NewDecoder(snap[:len(snap)-1], testMagic, testVersion); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("short trailer: err = %v, want ErrBadChecksum", err)
	}
}

func TestStickyErrorAndOverread(t *testing.T) {
	e := NewEncoder(testMagic, testVersion, 0)
	e.U32(9)
	snap := e.Finish()
	d, err := NewDecoder(snap, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	d.U32()
	if got := d.U64(); got != 0 { // runs past the payload
		t.Fatalf("overread returned %d, want zero", got)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("sticky err = %v, want ErrTruncated", d.Err())
	}
	// Later reads stay inert and Close reports the first error.
	if got := d.U8(); got != 0 {
		t.Fatalf("read after error returned %d", got)
	}
	if !errors.Is(d.Close(), ErrTruncated) {
		t.Fatalf("Close = %v, want ErrTruncated", d.Close())
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	e := NewEncoder(testMagic, testVersion, 0)
	e.U32(1)
	e.U32(2)
	snap := e.Finish()
	d, err := NewDecoder(snap, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	d.U32()
	if !errors.Is(d.Close(), ErrTrailing) {
		t.Fatalf("Close = %v, want ErrTrailing", d.Close())
	}
}

func TestCountGuardsHostileLengths(t *testing.T) {
	e := NewEncoder(testMagic, testVersion, 0)
	e.Uvarint(1 << 30)
	snap := e.Finish()
	d, err := NewDecoder(snap, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Count(1 << 20); got != 0 {
		t.Fatalf("Count = %d, want 0 on limit breach", got)
	}
	if d.Err() == nil {
		t.Fatal("Count past limit did not set the sticky error")
	}
}

func TestBoolRejectsNonCanonicalBytes(t *testing.T) {
	e := NewEncoder(testMagic, testVersion, 0)
	e.U8(7)
	snap := e.Finish()
	d, err := NewDecoder(snap, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	d.Bool()
	if d.Err() == nil {
		t.Fatal("Bool accepted byte 7")
	}
}

func TestCountForBoundsAgainstRemainingBytes(t *testing.T) {
	// A tiny payload declaring a huge element count must fail at the count,
	// before any caller pre-allocates from it.
	e := NewEncoder(testMagic, testVersion, 0)
	e.Uvarint(1 << 27)
	snap := e.Finish()
	d, err := NewDecoder(snap, testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CountFor(1<<28, 53); got != 0 {
		t.Fatalf("CountFor = %d, want 0 for a count the payload cannot hold", got)
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}

	// A count the payload CAN hold passes.
	e = NewEncoder(testMagic, testVersion, 0)
	e.Uvarint(3)
	e.Raw(make([]byte, 3*10))
	snap = e.Finish()
	if d, err = NewDecoder(snap, testMagic, testVersion); err != nil {
		t.Fatal(err)
	}
	if got := d.CountFor(1<<28, 10); got != 3 {
		t.Fatalf("CountFor = %d, want 3", got)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

// TestUvarintRejectsOverlongEncodings: a varint padded with zero groups names
// a value the encoder writes shorter (0x80 0x00 is 0, written 0x00), so a
// decoder taking it accepts bytes no encoder wrote. Every length's shortest
// forms still decode, the padded ones fail with ErrOverlongVarint, and what
// the encoder writes for the boundary values of each length reads back.
func TestUvarintRejectsOverlongEncodings(t *testing.T) {
	read := func(raw []byte) (uint64, error) {
		e := NewEncoder(testMagic, testVersion, 0)
		e.Raw(raw)
		d, err := NewDecoder(e.Finish(), testMagic, testVersion)
		if err != nil {
			t.Fatal(err)
		}
		v := d.Uvarint()
		if d.Err() == nil && d.Remaining() != 0 {
			t.Fatalf("% x: %d bytes left unread", raw, d.Remaining())
		}
		return v, d.Err()
	}
	for _, tc := range []struct {
		raw  []byte
		want uint64
	}{
		{[]byte{0x00}, 0},
		{[]byte{0x7f}, 127},
		{[]byte{0x80, 0x01}, 128},
		{[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 1<<64 - 1},
	} {
		if got, err := read(tc.raw); err != nil || got != tc.want {
			t.Errorf("% x: read %d, %v; want %d", tc.raw, got, err, tc.want)
		}
	}
	for _, raw := range [][]byte{
		{0x80, 0x00},             // 0 in two bytes
		{0xff, 0x00},             // 127 in two
		{0x81, 0x80, 0x00},       // 1 in three
		{0x80, 0x80, 0x80, 0x00}, // 0 in four
	} {
		if got, err := read(raw); !errors.Is(err, ErrOverlongVarint) || got != 0 {
			t.Errorf("% x: read %d, %v; want ErrOverlongVarint", raw, got, err)
		}
	}
	for shift := 0; shift < 64; shift += 7 {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			e := NewEncoder(testMagic, testVersion, 0)
			e.Uvarint(v)
			d, err := NewDecoder(e.Finish(), testMagic, testVersion)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Uvarint(); got != v || d.Err() != nil {
				t.Errorf("%d reads back as %d (%v)", v, got, d.Err())
			}
		}
	}
}
