package btc

import (
	"encoding/binary"
	"errors"
	"io"
)

// This file implements the Bitcoin wire encoding primitives: little-endian
// fixed-width integers and the variable-length integer ("CompactSize")
// encoding used throughout the P2P protocol and in transaction/block
// serialization. Decoding is parse.go's cursor.

// ErrTruncated is returned when a decoder runs out of input.
var ErrTruncated = errors.New("btc: truncated input")

// maxAlloc caps the element count a decoder will pre-allocate for, guarding
// against memory exhaustion from hostile length prefixes.
const maxAlloc = 1 << 20

// WriteVarInt encodes v using Bitcoin's CompactSize encoding.
func WriteVarInt(w io.Writer, v uint64) error {
	var buf [9]byte
	switch {
	case v < 0xfd:
		buf[0] = byte(v)
		_, err := w.Write(buf[:1])
		return err
	case v <= 0xffff:
		buf[0] = 0xfd
		binary.LittleEndian.PutUint16(buf[1:3], uint16(v))
		_, err := w.Write(buf[:3])
		return err
	case v <= 0xffffffff:
		buf[0] = 0xfe
		binary.LittleEndian.PutUint32(buf[1:5], uint32(v))
		_, err := w.Write(buf[:5])
		return err
	default:
		buf[0] = 0xff
		binary.LittleEndian.PutUint64(buf[1:9], v)
		_, err := w.Write(buf[:9])
		return err
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

// WriteVarBytes writes a length-prefixed byte slice.
func WriteVarBytes(w io.Writer, b []byte) error {
	if err := WriteVarInt(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func writeUint32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeUint64(w io.Writer, v uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func writeHash(w io.Writer, h Hash) error {
	_, err := w.Write(h[:])
	return err
}
