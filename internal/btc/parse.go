package btc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The wire decoder: a cursor over a byte slice that is already in memory
// (wire bytes from the adapter, a snapshot, a stream frame, a
// send_transaction argument). Script fields alias the input buffer, and every
// transaction ID of a block is DoubleSHA256 over the transaction's wire span,
// so the txid table costs one hash per transaction and no re-serialization.
//
// The varint reader enforces canonical CompactSize forms, so any input that
// parses is byte-identical to the re-encoding of its parse, and the span
// hashes equal the TxID() of the decoded transactions — the property
// FuzzParseBlock holds the decoder to, with the append encoder (AppendTo) as
// its oracle.

// cursor is a bounds-checked reader over a byte slice.
type cursor struct {
	data []byte
	off  int
}

func (c *cursor) remaining() int { return len(c.data) - c.off }

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, ErrTruncated
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *cursor) hash() (Hash, error) {
	b, err := c.take(HashSize)
	if err != nil {
		return Hash{}, err
	}
	var h Hash
	copy(h[:], b)
	return h, nil
}

// varint decodes a CompactSize integer, enforcing canonical (minimal)
// encoding as Bitcoin consensus does for transaction counts.
func (c *cursor) varint() (uint64, error) {
	b, err := c.take(1)
	if err != nil {
		return 0, fmt.Errorf("%w: varint prefix", ErrTruncated)
	}
	switch b[0] {
	case 0xfd:
		p, err := c.take(2)
		if err != nil {
			return 0, fmt.Errorf("%w: varint16", ErrTruncated)
		}
		v := uint64(binary.LittleEndian.Uint16(p))
		if v < 0xfd {
			return 0, errors.New("btc: non-canonical varint")
		}
		return v, nil
	case 0xfe:
		p, err := c.take(4)
		if err != nil {
			return 0, fmt.Errorf("%w: varint32", ErrTruncated)
		}
		v := uint64(binary.LittleEndian.Uint32(p))
		if v <= 0xffff {
			return 0, errors.New("btc: non-canonical varint")
		}
		return v, nil
	case 0xff:
		p, err := c.take(8)
		if err != nil {
			return 0, fmt.Errorf("%w: varint64", ErrTruncated)
		}
		v := binary.LittleEndian.Uint64(p)
		if v <= 0xffffffff {
			return 0, errors.New("btc: non-canonical varint")
		}
		return v, nil
	default:
		return uint64(b[0]), nil
	}
}

// varbytes reads a length-prefixed byte slice aliasing the input buffer,
// rejecting lengths above maxLen.
func (c *cursor) varbytes(maxLen uint64) ([]byte, error) {
	n, err := c.varint()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("btc: var bytes length %d exceeds limit %d", n, maxLen)
	}
	b, err := c.take(int(n))
	if err != nil {
		return nil, fmt.Errorf("%w: var bytes body", ErrTruncated)
	}
	return b, nil
}

// parseTransaction decodes one transaction starting at the cursor,
// returning it together with its wire span [start, end) for span hashing.
func (c *cursor) parseTransaction() (*Transaction, int, int, error) {
	start := c.off
	var t Transaction
	var err error
	if t.Version, err = c.u32(); err != nil {
		return nil, 0, 0, fmt.Errorf("btc: tx version: %w", err)
	}
	nIn, err := c.varint()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("btc: tx input count: %w", err)
	}
	if nIn > maxTxInputs {
		return nil, 0, 0, fmt.Errorf("btc: too many inputs: %d", nIn)
	}
	t.Inputs = make([]TxIn, 0, min(nIn, maxAlloc))
	for i := uint64(0); i < nIn; i++ {
		var in TxIn
		if in.PreviousOutPoint.TxID, err = c.hash(); err != nil {
			return nil, 0, 0, fmt.Errorf("btc: tx input %d: %w", i, err)
		}
		if in.PreviousOutPoint.Vout, err = c.u32(); err != nil {
			return nil, 0, 0, fmt.Errorf("btc: tx input %d vout: %w", i, err)
		}
		if in.SignatureScript, err = c.varbytes(maxScriptLen); err != nil {
			return nil, 0, 0, fmt.Errorf("btc: tx input %d script: %w", i, err)
		}
		if in.Sequence, err = c.u32(); err != nil {
			return nil, 0, 0, fmt.Errorf("btc: tx input %d sequence: %w", i, err)
		}
		t.Inputs = append(t.Inputs, in)
	}
	nOut, err := c.varint()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("btc: tx output count: %w", err)
	}
	if nOut > maxTxOutputs {
		return nil, 0, 0, fmt.Errorf("btc: too many outputs: %d", nOut)
	}
	t.Outputs = make([]TxOut, 0, min(nOut, maxAlloc))
	for i := uint64(0); i < nOut; i++ {
		var out TxOut
		v, err := c.u64()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("btc: tx output %d value: %w", i, err)
		}
		out.Value = int64(v)
		if out.PkScript, err = c.varbytes(maxScriptLen); err != nil {
			return nil, 0, 0, fmt.Errorf("btc: tx output %d script: %w", i, err)
		}
		t.Outputs = append(t.Outputs, out)
	}
	if t.LockTime, err = c.u32(); err != nil {
		return nil, 0, 0, fmt.Errorf("btc: tx locktime: %w", err)
	}
	return &t, start, c.off, nil
}

// ParseBlockFast decodes a block from wire bytes without copying script
// fields (they alias data, which must stay immutable for the block's
// lifetime), seals the block's transaction-ID memo by double-hashing each
// transaction's wire span, and keeps data as the block's Bytes. ParseBlock is
// the same decoder over a private copy, for callers that cannot promise that.
func ParseBlockFast(data []byte) (*Block, error) {
	c := &cursor{data: data}
	hdrBytes, err := c.take(BlockHeaderSize)
	if err != nil {
		return nil, fmt.Errorf("btc: header: %w", ErrTruncated)
	}
	hdr, err := ParseBlockHeader(hdrBytes)
	if err != nil {
		return nil, err
	}
	n, err := c.varint()
	if err != nil {
		return nil, fmt.Errorf("btc: block tx count: %w", err)
	}
	if n > maxBlockTxs {
		return nil, fmt.Errorf("btc: too many transactions: %d", n)
	}
	b := &Block{Header: hdr, Transactions: make([]*Transaction, 0, min(n, maxAlloc)),
		wire: data[:len(data):len(data)], wireHeader: hdr} // capped: an append must not write past the block
	ids := make([]Hash, 0, min(n, maxAlloc))
	for i := uint64(0); i < n; i++ {
		tx, start, end, err := c.parseTransaction()
		if err != nil {
			return nil, fmt.Errorf("btc: block tx %d: %w", i, err)
		}
		b.Transactions = append(b.Transactions, tx)
		ids = append(ids, DoubleSHA256(data[start:end]))
	}
	if c.remaining() != 0 {
		return nil, errors.New("btc: trailing bytes after block")
	}
	if len(b.Transactions) > 0 {
		b.sealTxIDs(ids)
	}
	return b, nil
}
