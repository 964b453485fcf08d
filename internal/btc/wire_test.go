package btc

import (
	"testing"
	"testing/quick"
)

func TestVarIntRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 0xfc, 0xfd, 0xfe, 0xffff, 0x10000, 0xffffffff, 0x100000000, 1<<64 - 1}
	for _, v := range cases {
		buf := AppendVarInt(nil, v)
		if len(buf) != VarIntSize(v) {
			t.Errorf("v=%d: encoded %d bytes, VarIntSize says %d", v, len(buf), VarIntSize(v))
		}
		got, err := (&cursor{data: buf}).varint()
		if err != nil {
			t.Fatalf("read %d: %v", v, err)
		}
		if got != v {
			t.Errorf("round trip: got %d, want %d", got, v)
		}
	}
}

func TestVarIntCanonical(t *testing.T) {
	// 0xfd prefix encoding a value < 0xfd must be rejected.
	cases := [][]byte{
		{0xfd, 0x01, 0x00},                                     // 1 encoded in 3 bytes
		{0xfe, 0xff, 0xff, 0x00, 0x00},                         // 0xffff encoded in 5 bytes
		{0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00}, // 32-bit in 9
	}
	for i, c := range cases {
		if _, err := (&cursor{data: c}).varint(); err == nil {
			t.Errorf("case %d: non-canonical varint accepted", i)
		}
	}
}

func TestVarIntTruncated(t *testing.T) {
	cases := [][]byte{{}, {0xfd}, {0xfd, 0x01}, {0xfe, 1, 2, 3}, {0xff, 1, 2, 3, 4, 5, 6, 7}}
	for i, c := range cases {
		if _, err := (&cursor{data: c}).varint(); err == nil {
			t.Errorf("case %d: truncated varint accepted", i)
		}
	}
}

func TestQuickVarIntRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		got, err := (&cursor{data: AppendVarInt(nil, v)}).varint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarBytesLimit(t *testing.T) {
	buf := AppendVarBytes(nil, make([]byte, 100))
	if _, err := (&cursor{data: buf}).varbytes(99); err == nil {
		t.Fatal("length above limit accepted")
	}
	got, err := (&cursor{data: buf}).varbytes(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("got %d bytes, want 100", len(got))
	}
}

func TestDoubleSHA256KnownVector(t *testing.T) {
	// Double SHA-256 of the empty string.
	h := DoubleSHA256(nil)
	// Display order reverses bytes; verify against the known value of
	// sha256d("") = 5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456
	// whose reversed-hex display is below.
	const want = "56944c5d3f98413ef45cf54545538103cc9f298e0575820ad3591376e2e0f65d"
	if h.String() != want {
		t.Fatalf("got %s, want %s", h, want)
	}
}

func TestHash160Stable(t *testing.T) {
	a := Hash160([]byte("key"))
	b := Hash160([]byte("key"))
	c := Hash160([]byte("other"))
	if a != b {
		t.Fatal("Hash160 not deterministic")
	}
	if a == c {
		t.Fatal("Hash160 collision on trivially distinct inputs")
	}
}
