// Package statecodec implements the deterministic, versioned binary
// encoding the canister state snapshots are written in. The production
// Bitcoin canister keeps its UTXO set and header tree in stable memory so
// the state survives canister upgrades and lets fresh replicas state-sync
// instead of re-ingesting the chain; this package is the serialization
// substrate for the equivalent capability here.
//
// Format invariants every user of the package relies on:
//
//   - Determinism: the encoding of a value is a pure function of the value.
//     Callers must serialize map-backed containers in an explicit canonical
//     order (the codecs in utxo and canister sort by key); the primitives
//     here never introduce nondeterminism.
//   - Versioning: a snapshot opens with a magic string and a uint16 format
//     version. Decoders reject unknown magics and versions up front, so a
//     codec change is an explicit version bump, caught by the golden-fixture
//     compatibility test in CI rather than by silent misdecoding.
//   - Integrity: the payload is followed by a CRC-32C (Castagnoli)
//     checksum over everything before it — the storage-engine standard,
//     hardware-accelerated, so integrity costs ~nothing on the restore
//     path. A truncated or corrupted snapshot fails fast instead of
//     restoring partial state. (The trailer is corruption detection, not
//     authentication: anyone can compute it, so decoders treat snapshot
//     contents as untrusted input regardless — see Count/CountFor.)
//
// Both Encoder and Decoder carry a sticky error: after the first failure
// every subsequent operation is a no-op, so codec code can be written as a
// straight-line sequence with a single error check at the end.
package statecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Well-known decode errors.
var (
	ErrBadMagic    = errors.New("statecodec: bad snapshot magic")
	ErrBadVersion  = errors.New("statecodec: unsupported snapshot version")
	ErrBadChecksum = errors.New("statecodec: snapshot checksum mismatch")
	ErrTruncated   = errors.New("statecodec: truncated snapshot")
	ErrTrailing    = errors.New("statecodec: trailing bytes after snapshot payload")
	// ErrOverlongVarint rejects a varint padded with zero groups: it would
	// decode to a value the encoder writes shorter, so accepting it makes
	// bytes no encoder wrote re-encode to other bytes.
	ErrOverlongVarint = errors.New("statecodec: over-long varint")
)

// checksumSize is the length of the CRC-32C trailer.
const checksumSize = 4

// crcTable is the Castagnoli polynomial table (hardware CRC32 on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encoder builds a snapshot payload. Create one with NewEncoder, write the
// payload with the typed appenders, and seal it with Finish.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a snapshot with the given magic string and format
// version, pre-allocating capacity for sizeHint payload bytes.
func NewEncoder(magic string, version uint16, sizeHint int) *Encoder {
	e := &Encoder{buf: make([]byte, 0, len(magic)+2+sizeHint+checksumSize)}
	e.buf = append(e.buf, magic...)
	e.U16(version)
	return e
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte (0 or 1).
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64 (two's complement).
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Uvarint appends an unsigned LEB128 varint — the encoding for counts and
// small indices.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Raw appends bytes verbatim (fixed-width fields like hashes and headers).
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Bytes appends a Uvarint length prefix followed by the bytes.
func (e *Encoder) Bytes(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.Raw(b)
}

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Len returns the number of payload bytes written so far (header included).
func (e *Encoder) Len() int { return len(e.buf) }

// Finish seals the snapshot: it appends the CRC-32C checksum over the
// entire header+payload and returns the completed byte slice. The encoder
// must not be used afterwards.
func (e *Encoder) Finish() []byte {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, crc32.Checksum(e.buf, crcTable))
	return e.buf
}

// Decoder reads a snapshot produced by Encoder. Create one with NewDecoder
// (which verifies magic, version, and checksum), read with the typed
// accessors, and call Close to assert full consumption.
type Decoder struct {
	buf []byte // payload only (magic/version consumed, checksum stripped)
	off int
	err error
}

// NewDecoder verifies the snapshot framing — magic string, format version,
// and trailing checksum — and positions the decoder at the first payload
// byte. version is the single format version the caller supports; older or
// newer snapshots are rejected with ErrBadVersion (the version that was
// found is included in the error).
func NewDecoder(data []byte, magic string, version uint16) (*Decoder, error) {
	if len(data) < len(magic)+2+checksumSize {
		return nil, ErrTruncated
	}
	if string(data[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	body, trailer := data[:len(data)-checksumSize], data[len(data)-checksumSize:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(trailer) {
		return nil, ErrBadChecksum
	}
	got := binary.LittleEndian.Uint16(data[len(magic):])
	if got != version {
		return nil, fmt.Errorf("%w: snapshot is v%d, decoder supports v%d", ErrBadVersion, got, version)
	}
	return &Decoder{buf: body[len(magic)+2:]}, nil
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// fail records the first error; later reads become no-ops returning zeros.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n payload bytes without copying, or nil after an
// error (including running out of input).
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.off, len(d.buf)))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean, rejecting values other than 0 and 1 (a corrupt flag
// would otherwise decode as "true" silently).
func (d *Decoder) Bool() bool {
	switch v := d.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("statecodec: invalid bool byte 0x%02x", v))
		return false
	}
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Uvarint reads an unsigned LEB128 varint in its shortest form, the only one
// Encoder.Uvarint writes.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(fmt.Errorf("%w: bad uvarint at offset %d", ErrTruncated, d.off))
		return 0
	}
	if n > 1 && d.buf[d.off+n-1] == 0 {
		d.fail(fmt.Errorf("%w: %d bytes for %d at offset %d", ErrOverlongVarint, n, v, d.off))
		return 0
	}
	d.off += n
	return v
}

// Count reads a Uvarint bounded by max — the guard every repeated-element
// loop uses so a hostile length prefix cannot drive allocation.
func (d *Decoder) Count(max uint64) int {
	v := d.Uvarint()
	if d.err == nil && v > max {
		d.fail(fmt.Errorf("statecodec: count %d exceeds limit %d", v, max))
		return 0
	}
	return int(v)
}

// CountFor reads a count of items that each occupy at least itemBytes of
// payload, bounding it by max AND by what the remaining input could
// possibly hold. Decoders pre-allocate from declared counts; without the
// remaining-bytes bound, a tiny crafted snapshot declaring 2^28 entries
// would drive a multi-GiB allocation before the first entry is read (the
// checksum is integrity-only — anyone can compute it, so a peer-supplied
// fast-sync snapshot is untrusted input).
func (d *Decoder) CountFor(max uint64, itemBytes int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > max {
		d.fail(fmt.Errorf("statecodec: count %d exceeds limit %d", v, max))
		return 0
	}
	if itemBytes > 0 && v > uint64(d.Remaining())/uint64(itemBytes) {
		d.fail(fmt.Errorf("%w: count %d items of >=%d bytes exceeds %d remaining",
			ErrTruncated, v, itemBytes, d.Remaining()))
		return 0
	}
	return int(v)
}

// Raw reads n bytes. The returned slice aliases the snapshot buffer; copy
// it if it must outlive the snapshot bytes.
func (d *Decoder) Raw(n int) []byte { return d.take(n) }

// Bytes reads a length-prefixed byte slice of at most maxLen bytes. The
// returned slice aliases the snapshot buffer.
func (d *Decoder) Bytes(maxLen uint64) []byte {
	n := d.Count(maxLen)
	return d.take(n)
}

// String reads a length-prefixed string (copied out of the buffer).
func (d *Decoder) String(maxLen uint64) string { return string(d.Bytes(maxLen)) }

// Remaining returns the number of unread payload bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the current payload offset — together with Window, the
// basis for sharded decoding: a scan pass records section boundaries by
// offset, then parallel workers decode disjoint windows.
func (d *Decoder) Offset() int { return d.off }

// Skip advances past n payload bytes without reading them (the scan pass
// of a sharded decode steps over fixed-width fields this way).
func (d *Decoder) Skip(n int) { d.take(n) }

// Window returns an independent sub-decoder over payload bytes
// [start, end): same buffer (no copy), own offset and sticky error, no
// magic/version/checksum framing (the parent already verified those).
// Disjoint windows may be decoded concurrently; the parent must not be
// advanced past outstanding windows' bytes by anything but Skip. Close on
// the window asserts the window was fully consumed.
func (d *Decoder) Window(start, end int) (*Decoder, error) {
	if start < 0 || end < start || end > len(d.buf) {
		return nil, fmt.Errorf("statecodec: window [%d,%d) out of payload bounds %d", start, end, len(d.buf))
	}
	return &Decoder{buf: d.buf[:end], off: start}, nil
}

// Close asserts the payload was fully consumed and returns the sticky
// error, or ErrTrailing when bytes remain.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes left", ErrTrailing, len(d.buf)-d.off)
	}
	return nil
}
