package canister

import (
	"encoding/binary"
	"fmt"
	"strings"

	"icbtc/internal/ic"
)

// The typed method registry is the single source of truth for the
// canister's API surface. Every endpoint is one MethodDesc: its name, its
// dispatch kind (read-only endpoints serve on both the replicated and the
// query path; mutating ones on the replicated path only), a typed argument
// codec (the canonical request encoding the fleet's coalescer and
// hot-response cache key on), and its handler.
// Update/Query dispatch, the query-method list, the fleet's serving layers,
// and the README API reference all derive from this table — the
// stringly-typed switches it replaced could (and did) drift apart.
//
// A request's key is its canonical encoding, not a digest of it: the method
// name, then every argument field in declaration order, a string or byte
// field behind its one-byte length, an integer as eight little-endian bytes.
// The name selects the field list and every field is self-delimiting, so the
// encoding decodes back to exactly one request — two requests share a key
// only if they are the same request, by construction rather than by collision
// resistance. A key is a value (a fixed array and a length) that KeyInto
// writes where the caller holds it, at the cost of its bytes: no heap, no
// hash. KeyInto is a static switch on the argument type fixed when the
// registry is built, so the key pointer stays on the stack; handed to a func
// value it would escape (the compiler cannot see what the callee keeps).
// The array is MaxRequestKeyLen bytes, which every valid cacheable request
// fits with room to spare; a request that does not fit has no key
// (ErrRequestKeyTooLong), and the fleet serves it uncached and uncoalesced,
// so nothing a caller sizes is ever retained.

// MethodKind classifies how a method may be dispatched.
type MethodKind uint8

const (
	// MethodReadOnly methods serve on both execution paths: replicated
	// calls (certified, slow) and non-replicated queries (fast).
	MethodReadOnly MethodKind = iota
	// MethodUpdateOnly methods mutate state and serve on the replicated
	// path exclusively.
	MethodUpdateOnly
)

// String renders the kind for the generated API reference.
func (k MethodKind) String() string {
	switch k {
	case MethodReadOnly:
		return "query+update"
	case MethodUpdateOnly:
		return "update"
	default:
		return fmt.Sprintf("MethodKind(%d)", uint8(k))
	}
}

// MethodDesc describes one canister endpoint.
type MethodDesc struct {
	// Name is the wire-level method name.
	Name string
	// Kind selects the dispatch paths the method serves on.
	Kind MethodKind
	// Cacheable marks responses servable from the fleet's certified
	// hot-response cache keyed by (method, canonical args, tip). Only pure
	// functions of the chain state qualify; get_health is live telemetry
	// and stays uncached.
	Cacheable bool
	// ArgsDoc/ResultDoc name the typed argument and result shapes for the
	// generated API reference ("-" when none).
	ArgsDoc, ResultDoc string

	// zero is the argument's zero value (nil for none); KeyInto switches on its type.
	zero any
	// handle executes the endpoint.
	handle func(c *BitcoinCanister, ctx *ic.CallContext, arg any) (any, error)
}

// wrongArg is the error the key writer and the handler return for an argument of another type.
func (m *MethodDesc) wrongArg(arg any) error {
	return fmt.Errorf("canister: %s wants %T, got %T", m.Name, m.zero, arg)
}

// MaxRequestKeyLen bounds a request key. The largest valid cacheable request
// — get_utxos with a 90-character address and a 44-byte page cursor — encodes
// to 170 bytes; get_current_fee_percentiles, the longest name, to 28.
const MaxRequestKeyLen = 200

// A field's length prefix is one byte, which a field inside the bound always
// fits; this stops compiling if the bound outgrows it.
const _ = uint8(MaxRequestKeyLen)

// ErrRequestKeyTooLong reports a request whose canonical encoding exceeds
// MaxRequestKeyLen. No valid request does.
var ErrRequestKeyTooLong = fmt.Errorf("canister: request encoding exceeds the %d-byte key bound", MaxRequestKeyLen)

// RequestKey is the canonical encoding of one request (see the header of
// this file). Keys are comparable: equal requests produce equal keys, any
// differing argument field or method produces a different one.
type RequestKey struct {
	buf [MaxRequestKeyLen]byte
	// n is the encoded length; negative once a field did not fit.
	n int
}

// Bytes returns the encoding, aliasing k. A map indexed by string(k.Bytes())
// is probed in place; only storing under the key copies it.
func (k *RequestKey) Bytes() []byte { return k.buf[:k.n] }

// reserve claims the next n bytes of the key, nil when they do not fit (or an
// earlier field did not).
func (k *RequestKey) reserve(n int) []byte {
	if k.n < 0 || n > len(k.buf)-k.n {
		k.n = -1
		return nil
	}
	k.n += n
	return k.buf[k.n-n : k.n]
}

// str appends one length-prefixed string field.
func (k *RequestKey) str(s string) {
	if b := k.reserve(1 + len(s)); b != nil {
		b[0] = byte(len(s))
		copy(b[1:], s)
	}
}

// bytes appends one length-prefixed byte field (nil and empty encode alike:
// the canister reads both as "no cursor").
func (k *RequestKey) bytes(p []byte) {
	if b := k.reserve(1 + len(p)); b != nil {
		b[0] = byte(len(p))
		copy(b[1:], p)
	}
}

// i64 appends one fixed-width integer field.
func (k *RequestKey) i64(v int64) {
	if b := k.reserve(8); b != nil {
		binary.LittleEndian.PutUint64(b, uint64(v))
	}
}

// KeyInto writes the canonical key of one request into k — what the fleet's
// coalescer and response cache key on. A wrong-typed argument is rejected
// with the handler's own error, an encoding past the bound with
// ErrRequestKeyTooLong; either way k is left the zero key. Keys written into
// zero values compare with ==; over an earlier key only Bytes is defined.
func (m *MethodDesc) KeyInto(k *RequestKey, arg any) error {
	k.n = 0
	k.str(m.Name)
	ok := true
	switch m.zero.(type) {
	case GetUTXOsArgs:
		var a GetUTXOsArgs
		if a, ok = arg.(GetUTXOsArgs); ok {
			k.str(a.Address)
			k.i64(int64(a.Network))
			k.i64(a.MinConfirmations)
			k.bytes(a.Page)
			k.i64(int64(a.Limit))
		}
	case GetBalanceArgs:
		var a GetBalanceArgs
		if a, ok = arg.(GetBalanceArgs); ok {
			k.str(a.Address)
			k.i64(int64(a.Network))
			k.i64(a.MinConfirmations)
		}
	case GetBlockHeadersArgs:
		var a GetBlockHeadersArgs
		if a, ok = arg.(GetBlockHeadersArgs); ok {
			k.i64(a.StartHeight)
			k.i64(a.EndHeight)
		}
	case SendTransactionArgs:
		var a SendTransactionArgs
		if a, ok = arg.(SendTransactionArgs); ok {
			k.bytes(a.RawTx)
			k.i64(int64(a.Network))
		}
	default:
		ok = m.zero == nil // nullary; any other type has no writer, and typedMethod panics
	}
	if ok && k.n >= 0 {
		return nil
	}
	*k = RequestKey{}
	if !ok {
		return m.wrongArg(arg)
	}
	return ErrRequestKeyTooLong
}

// RequestKey returns the key KeyInto writes, by value.
func (m *MethodDesc) RequestKey(arg any) (k RequestKey, err error) {
	err = m.KeyInto(&k, arg)
	return k, err
}

// typedMethod builds a MethodDesc whose key writer and handler take the same
// argument type A, so they never disagree about it; an A with no key writer
// panics here, so no endpoint can quietly become keyless.
func typedMethod[A any](
	name string, kind MethodKind, cacheable bool,
	argsDoc, resultDoc string,
	handle func(c *BitcoinCanister, ctx *ic.CallContext, args A) (any, error),
) *MethodDesc {
	m := &MethodDesc{
		Name: name, Kind: kind, Cacheable: cacheable,
		ArgsDoc: argsDoc, ResultDoc: resultDoc, zero: *new(A),
	}
	if _, err := m.RequestKey(m.zero); err != nil {
		panic(fmt.Sprintf("canister: %s: no request-key writer for %T", name, m.zero))
	}
	m.handle = func(c *BitcoinCanister, ctx *ic.CallContext, arg any) (any, error) {
		args, ok := arg.(A)
		if !ok {
			return nil, m.wrongArg(arg)
		}
		return handle(c, ctx, args)
	}
	return m
}

// nullaryMethod builds a MethodDesc for an endpoint without arguments; the
// argument value is ignored (callers pass nil), and the request key is a
// function of the method name alone.
func nullaryMethod(
	name string, kind MethodKind, cacheable bool, resultDoc string,
	handle func(c *BitcoinCanister, ctx *ic.CallContext) (any, error),
) *MethodDesc {
	return &MethodDesc{
		Name: name, Kind: kind, Cacheable: cacheable,
		ArgsDoc: "-", ResultDoc: resultDoc,
		handle: func(c *BitcoinCanister, ctx *ic.CallContext, arg any) (any, error) {
			return handle(c, ctx)
		},
	}
}

// methodTable is the registry, in API-reference order.
var methodTable = []*MethodDesc{
	typedMethod("get_utxos", MethodReadOnly, true,
		"GetUTXOsArgs", "*GetUTXOsResult",
		func(c *BitcoinCanister, ctx *ic.CallContext, a GetUTXOsArgs) (any, error) {
			return c.GetUTXOs(ctx, a)
		}),
	typedMethod("get_balance", MethodReadOnly, true,
		"GetBalanceArgs", "int64",
		func(c *BitcoinCanister, ctx *ic.CallContext, a GetBalanceArgs) (any, error) {
			return c.GetBalance(ctx, a)
		}),
	typedMethod("get_block_headers", MethodReadOnly, true,
		"GetBlockHeadersArgs", "*GetBlockHeadersResult",
		func(c *BitcoinCanister, ctx *ic.CallContext, a GetBlockHeadersArgs) (any, error) {
			return c.GetBlockHeaders(ctx, a)
		}),
	nullaryMethod("get_current_fee_percentiles", MethodReadOnly, true,
		"[]int64",
		func(c *BitcoinCanister, ctx *ic.CallContext) (any, error) {
			return c.GetCurrentFeePercentiles(ctx)
		}),
	nullaryMethod("get_tip", MethodReadOnly, true,
		"btc.Hash",
		func(c *BitcoinCanister, ctx *ic.CallContext) (any, error) {
			return c.tipNode().Hash, nil
		}),
	nullaryMethod("get_health", MethodReadOnly, false,
		"*HealthStatus",
		func(c *BitcoinCanister, ctx *ic.CallContext) (any, error) {
			return c.GetHealth(ctx)
		}),
	nullaryMethod("get_metrics", MethodReadOnly, false,
		"*MetricsResult",
		func(c *BitcoinCanister, ctx *ic.CallContext) (any, error) {
			return c.GetMetrics(ctx)
		}),
	typedMethod("send_transaction", MethodUpdateOnly, false,
		"SendTransactionArgs", "-",
		func(c *BitcoinCanister, ctx *ic.CallContext, a SendTransactionArgs) (any, error) {
			return nil, c.SendTransaction(ctx, a)
		}),
}

// Methods returns the registry in API-reference order. The returned slice
// must not be mutated.
func Methods() []*MethodDesc { return methodTable }

// MethodByName walks the eight entries comparing names: cheaper than a hash.
func MethodByName(name string) (*MethodDesc, bool) {
	for _, m := range methodTable {
		if m.Name == name {
			return m, true
		}
	}
	return nil, false
}

// QueryMethodNames returns the names servable on the query path, derived
// from the registry (the hardcoded string list this replaced once drifted
// one endpoint behind the Update switch).
func QueryMethodNames() []string {
	names := make([]string, 0, len(methodTable))
	for _, m := range methodTable {
		if m.Kind == MethodReadOnly {
			names = append(names, m.Name)
		}
	}
	return names
}

// APIReferenceMarkdown renders the registry as the README's API reference
// table (cmd/apidoc regenerates it; a canister test pins the README copy to
// this output so the docs cannot drift from the code).
func APIReferenceMarkdown() string {
	var b strings.Builder
	b.WriteString("| method | kind | args | result | cacheable |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, m := range methodTable {
		cacheable := "no"
		if m.Cacheable {
			cacheable = "yes"
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | `%s` | %s |\n",
			m.Name, m.Kind, m.ArgsDoc, m.ResultDoc, cacheable)
	}
	return b.String()
}
