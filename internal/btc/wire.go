package btc

import (
	"encoding/binary"
	"errors"
)

// This file implements the Bitcoin wire encoding primitives: the
// variable-length integer ("CompactSize") encoding used throughout the P2P
// protocol and in transaction/block serialization, appended to a byte slice
// beside binary.LittleEndian's fixed-width appends. Decoding is parse.go's
// cursor.

// ErrTruncated is returned when a decoder runs out of input.
var ErrTruncated = errors.New("btc: truncated input")

// maxAlloc caps the element count a decoder will pre-allocate for, guarding
// against memory exhaustion from hostile length prefixes.
const maxAlloc = 1 << 20

// AppendVarInt appends v in Bitcoin's CompactSize encoding.
func AppendVarInt(b []byte, v uint64) []byte {
	switch {
	case v < 0xfd:
		return append(b, byte(v))
	case v <= 0xffff:
		return binary.LittleEndian.AppendUint16(append(b, 0xfd), uint16(v))
	case v <= 0xffffffff:
		return binary.LittleEndian.AppendUint32(append(b, 0xfe), uint32(v))
	default:
		return binary.LittleEndian.AppendUint64(append(b, 0xff), v)
	}
}

// VarIntSize returns the encoded size of v in bytes.
func VarIntSize(v uint64) int {
	switch {
	case v < 0xfd:
		return 1
	case v <= 0xffff:
		return 3
	case v <= 0xffffffff:
		return 5
	default:
		return 9
	}
}

// AppendVarBytes appends a length-prefixed byte slice.
func AppendVarBytes(b, data []byte) []byte {
	return append(AppendVarInt(b, uint64(len(data))), data...)
}
