package btc

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

// Satoshi amounts. One bitcoin is 1e8 satoshi.
const (
	SatoshiPerBitcoin = 100_000_000
	// MaxSatoshi is the total supply cap (21 million BTC) in satoshi.
	MaxSatoshi = 21_000_000 * SatoshiPerBitcoin
)

// OutPoint identifies a transaction output by the hash of the transaction
// that created it and the output index within that transaction.
type OutPoint struct {
	TxID Hash
	Vout uint32
}

// String renders the outpoint as txid:vout.
func (o OutPoint) String() string { return fmt.Sprintf("%s:%d", o.TxID, o.Vout) }

// TxIn spends a previous output. SignatureScript carries the unlocking data
// (a DER signature and public key for P2PKH, empty for witness spends).
type TxIn struct {
	PreviousOutPoint OutPoint
	SignatureScript  []byte
	Witness          [][]byte
	Sequence         uint32
}

// TxOut creates new value locked by PkScript.
type TxOut struct {
	Value    int64
	PkScript []byte
}

// Transaction is a Bitcoin transaction. A transaction with a single input
// whose previous outpoint is the zero hash is a coinbase transaction.
type Transaction struct {
	Version  uint32
	Inputs   []TxIn
	Outputs  []TxOut
	LockTime uint32
}

// IsCoinbase reports whether the transaction is a coinbase (mints new value).
func (t *Transaction) IsCoinbase() bool {
	return len(t.Inputs) == 1 &&
		t.Inputs[0].PreviousOutPoint.TxID.IsZero() &&
		t.Inputs[0].PreviousOutPoint.Vout == 0xffffffff
}

// Serialize encodes the transaction in Bitcoin wire format (without witness
// data; witnesses travel in the segregated area and do not affect the txid).
func (t *Transaction) Serialize(w io.Writer) error {
	if err := writeUint32(w, t.Version); err != nil {
		return err
	}
	if err := WriteVarInt(w, uint64(len(t.Inputs))); err != nil {
		return err
	}
	for i := range t.Inputs {
		in := &t.Inputs[i]
		if err := writeHash(w, in.PreviousOutPoint.TxID); err != nil {
			return err
		}
		if err := writeUint32(w, in.PreviousOutPoint.Vout); err != nil {
			return err
		}
		if err := WriteVarBytes(w, in.SignatureScript); err != nil {
			return err
		}
		if err := writeUint32(w, in.Sequence); err != nil {
			return err
		}
	}
	if err := WriteVarInt(w, uint64(len(t.Outputs))); err != nil {
		return err
	}
	for i := range t.Outputs {
		out := &t.Outputs[i]
		if err := writeUint64(w, uint64(out.Value)); err != nil {
			return err
		}
		if err := WriteVarBytes(w, out.PkScript); err != nil {
			return err
		}
	}
	return writeUint32(w, t.LockTime)
}

// Bytes returns the wire encoding.
func (t *Transaction) Bytes() []byte {
	var buf bytes.Buffer
	// Buffer writes cannot fail.
	_ = t.Serialize(&buf)
	return buf.Bytes()
}

// TxID returns the transaction hash (double SHA-256 of the non-witness
// serialization).
func (t *Transaction) TxID() Hash {
	return DoubleSHA256(t.Bytes())
}

// SerializedSize returns the byte length of the wire encoding.
func (t *Transaction) SerializedSize() int {
	n := 4 + 4 // version + locktime
	n += VarIntSize(uint64(len(t.Inputs)))
	for i := range t.Inputs {
		in := &t.Inputs[i]
		n += 32 + 4 + VarIntSize(uint64(len(in.SignatureScript))) + len(in.SignatureScript) + 4
	}
	n += VarIntSize(uint64(len(t.Outputs)))
	for i := range t.Outputs {
		out := &t.Outputs[i]
		n += 8 + VarIntSize(uint64(len(out.PkScript))) + len(out.PkScript)
	}
	return n
}

// Tx size and count consensus limits (simplified: the simulation uses the
// pre-segwit 1 MB-style block size limit scaled to the simulated network).
const (
	maxTxInputs  = 100_000
	maxTxOutputs = 100_000
	maxScriptLen = 10_000
)

// ParseTransaction decodes a transaction from bytes, rejecting trailing
// data. The result shares no memory with data.
func ParseTransaction(data []byte) (*Transaction, error) {
	c := &cursor{data: bytes.Clone(data)}
	t, _, _, err := c.parseTransaction()
	if err != nil {
		return nil, err
	}
	if c.remaining() != 0 {
		return nil, errors.New("btc: trailing bytes after transaction")
	}
	return t, nil
}

// CheckSanity performs the stateless syntactic checks the Bitcoin canister's
// send_transaction endpoint applies before forwarding a transaction: it must
// decode, have at least one input and output, and its output values must be
// in range individually and in aggregate.
func (t *Transaction) CheckSanity() error {
	if len(t.Inputs) == 0 {
		return errors.New("btc: transaction has no inputs")
	}
	if len(t.Outputs) == 0 {
		return errors.New("btc: transaction has no outputs")
	}
	var total int64
	for i := range t.Outputs {
		v := t.Outputs[i].Value
		if v < 0 || v > MaxSatoshi {
			return fmt.Errorf("btc: output %d value %d out of range", i, v)
		}
		total += v
		if total > MaxSatoshi {
			return errors.New("btc: total output value exceeds supply cap")
		}
	}
	seen := make(map[OutPoint]struct{}, len(t.Inputs))
	for i := range t.Inputs {
		op := t.Inputs[i].PreviousOutPoint
		if _, dup := seen[op]; dup {
			return fmt.Errorf("btc: duplicate input %s", op)
		}
		seen[op] = struct{}{}
	}
	return nil
}
