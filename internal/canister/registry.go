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
// query path; mutating ones on the replicated path only), its admission
// cost class, a typed argument codec (the canonical request encoding the
// fleet's coalescer and hot-response cache key on), and its handler.
// Update/Query dispatch, the query-method list, the subnet's routing table
// (ic.MethodTable), the fleet's serving layers, and the README API reference
// all derive from this table — the stringly-typed switches it replaced could
// (and did) drift apart.
//
// A request's key is its canonical encoding, not a digest of it: the method
// name, then every argument field in declaration order, a string or byte
// field behind its one-byte length, an integer as eight little-endian bytes.
// The name selects the field list and every field is self-delimiting, so the
// encoding decodes back to exactly one request — two requests share a key
// only if they are the same request, by construction rather than by collision
// resistance. A key is a value (a fixed array and a length): building one
// touches no heap, and it costs a copy of the bytes it holds, not a hash.
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

// CostClass groups methods by execution cost for the fleet's admission
// control: each class gets its own budget, so a flood in one class (e.g.
// paginated get_utxos scans) cannot starve another (get_balance lookups).
type CostClass uint8

const (
	// CostCheap: O(1)-ish lookups off maintained state.
	CostCheap CostClass = iota
	// CostScan: work proportional to a page, a range, or the unstable
	// suffix.
	CostScan
	// CostWrite: state-mutating calls on the replicated path.
	CostWrite
)

// String renders the cost class for budgets, errors, and the API reference.
func (c CostClass) String() string {
	switch c {
	case CostCheap:
		return "cheap"
	case CostScan:
		return "scan"
	case CostWrite:
		return "write"
	default:
		return fmt.Sprintf("CostClass(%d)", uint8(c))
	}
}

// MethodDesc describes one canister endpoint.
type MethodDesc struct {
	// Name is the wire-level method name.
	Name string
	// Kind selects the dispatch paths the method serves on.
	Kind MethodKind
	// Cost is the admission-control cost class.
	Cost CostClass
	// Cacheable marks responses servable from the fleet's certified
	// hot-response cache keyed by (method, canonical args, tip). Only pure
	// functions of the chain state qualify; get_health is live telemetry
	// and stays uncached.
	Cacheable bool
	// ArgsDoc/ResultDoc name the typed argument and result shapes for the
	// generated API reference ("-" when none).
	ArgsDoc, ResultDoc string

	// encodeKey builds the request key of a typed argument value. It
	// rejects wrong-typed arguments with the same error the handler would.
	// The key travels by value on purpose: a pointer handed to a func value
	// escapes, and the key would be a heap allocation per query.
	encodeKey func(arg any) (RequestKey, error)
	// handle executes the endpoint.
	handle func(c *BitcoinCanister, ctx *ic.CallContext, arg any) (any, error)
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

// RequestKey builds the canonical key of one request — what the fleet's
// coalescer and response cache key on. A wrong-typed argument is rejected
// with the handler's own error, an encoding past the bound with
// ErrRequestKeyTooLong; either way the key returned is the zero key.
func (m *MethodDesc) RequestKey(arg any) (RequestKey, error) { return m.encodeKey(arg) }

// typedMethod builds a MethodDesc whose argument codec and handler share
// one typed coercion, so the request-key encoder and the dispatch path can
// never disagree about what arguments a method takes. encode returns the key
// of (method, args): the name first, then every field of A.
func typedMethod[A any](
	name string, kind MethodKind, cost CostClass, cacheable bool,
	argsDoc, resultDoc string,
	encode func(method string, args A) RequestKey,
	handle func(c *BitcoinCanister, ctx *ic.CallContext, args A) (any, error),
) *MethodDesc {
	coerce := func(arg any) (A, error) {
		args, ok := arg.(A)
		if !ok {
			var zero A
			return zero, fmt.Errorf("canister: %s wants %T, got %T", name, zero, arg)
		}
		return args, nil
	}
	return &MethodDesc{
		Name: name, Kind: kind, Cost: cost, Cacheable: cacheable,
		ArgsDoc: argsDoc, ResultDoc: resultDoc,
		encodeKey: func(arg any) (k RequestKey, err error) {
			args, err := coerce(arg)
			if err != nil {
				return k, err
			}
			if k = encode(name, args); k.n < 0 {
				return RequestKey{}, ErrRequestKeyTooLong
			}
			return k, nil
		},
		handle: func(c *BitcoinCanister, ctx *ic.CallContext, arg any) (any, error) {
			args, err := coerce(arg)
			if err != nil {
				return nil, err
			}
			return handle(c, ctx, args)
		},
	}
}

// nullaryMethod builds a MethodDesc for an endpoint without arguments; the
// argument value is ignored (callers pass nil), and the request key is a
// function of the method name alone.
func nullaryMethod(
	name string, kind MethodKind, cost CostClass, cacheable bool, resultDoc string,
	handle func(c *BitcoinCanister, ctx *ic.CallContext) (any, error),
) *MethodDesc {
	return &MethodDesc{
		Name: name, Kind: kind, Cost: cost, Cacheable: cacheable,
		ArgsDoc: "-", ResultDoc: resultDoc,
		encodeKey: func(arg any) (k RequestKey, err error) {
			k.str(name)
			return k, nil
		},
		handle: func(c *BitcoinCanister, ctx *ic.CallContext, arg any) (any, error) {
			return handle(c, ctx)
		},
	}
}

// methodTable is the registry, in API-reference order.
var methodTable = []*MethodDesc{
	typedMethod("get_utxos", MethodReadOnly, CostScan, true,
		"GetUTXOsArgs", "*GetUTXOsResult",
		func(method string, a GetUTXOsArgs) (k RequestKey) {
			k.str(method)
			k.str(a.Address)
			k.i64(int64(a.Network))
			k.i64(a.MinConfirmations)
			k.bytes(a.Page)
			k.i64(int64(a.Limit))
			return k
		},
		func(c *BitcoinCanister, ctx *ic.CallContext, a GetUTXOsArgs) (any, error) {
			return c.GetUTXOs(ctx, a)
		}),
	typedMethod("get_balance", MethodReadOnly, CostCheap, true,
		"GetBalanceArgs", "int64",
		func(method string, a GetBalanceArgs) (k RequestKey) {
			k.str(method)
			k.str(a.Address)
			k.i64(int64(a.Network))
			k.i64(a.MinConfirmations)
			return k
		},
		func(c *BitcoinCanister, ctx *ic.CallContext, a GetBalanceArgs) (any, error) {
			return c.GetBalance(ctx, a)
		}),
	typedMethod("get_block_headers", MethodReadOnly, CostScan, true,
		"GetBlockHeadersArgs", "*GetBlockHeadersResult",
		func(method string, a GetBlockHeadersArgs) (k RequestKey) {
			k.str(method)
			k.i64(a.StartHeight)
			k.i64(a.EndHeight)
			return k
		},
		func(c *BitcoinCanister, ctx *ic.CallContext, a GetBlockHeadersArgs) (any, error) {
			return c.GetBlockHeaders(ctx, a)
		}),
	nullaryMethod("get_current_fee_percentiles", MethodReadOnly, CostScan, true,
		"[]int64",
		func(c *BitcoinCanister, ctx *ic.CallContext) (any, error) {
			return c.GetCurrentFeePercentiles(ctx)
		}),
	nullaryMethod("get_tip", MethodReadOnly, CostCheap, true,
		"btc.Hash",
		func(c *BitcoinCanister, ctx *ic.CallContext) (any, error) {
			return c.tipNode().Hash, nil
		}),
	nullaryMethod("get_health", MethodReadOnly, CostCheap, false,
		"*HealthStatus",
		func(c *BitcoinCanister, ctx *ic.CallContext) (any, error) {
			return c.GetHealth(ctx)
		}),
	nullaryMethod("get_metrics", MethodReadOnly, CostCheap, false,
		"*MetricsResult",
		func(c *BitcoinCanister, ctx *ic.CallContext) (any, error) {
			return c.GetMetrics(ctx)
		}),
	typedMethod("send_transaction", MethodUpdateOnly, CostWrite, false,
		"SendTransactionArgs", "-",
		func(method string, a SendTransactionArgs) (k RequestKey) {
			k.str(method)
			k.bytes(a.RawTx)
			k.i64(int64(a.Network))
			return k
		},
		func(c *BitcoinCanister, ctx *ic.CallContext, a SendTransactionArgs) (any, error) {
			return nil, c.SendTransaction(ctx, a)
		}),
}

// methodByName indexes the registry.
var methodByName = func() map[string]*MethodDesc {
	idx := make(map[string]*MethodDesc, len(methodTable))
	for _, m := range methodTable {
		if _, dup := idx[m.Name]; dup {
			panic("canister: duplicate method " + m.Name)
		}
		idx[m.Name] = m
	}
	return idx
}()

// Methods returns the registry in API-reference order. The returned slice
// must not be mutated.
func Methods() []*MethodDesc { return methodTable }

// MethodByName looks one method up.
func MethodByName(name string) (*MethodDesc, bool) {
	m, ok := methodByName[name]
	return m, ok
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

// MethodSpec implements ic.MethodTable: the subnet's routing layer rejects
// calls on a dispatch path the registry does not declare, before any
// execution resources are spent.
func (c *BitcoinCanister) MethodSpec(method string) (ic.MethodSpec, bool) {
	m, ok := methodByName[method]
	if !ok {
		return ic.MethodSpec{}, false
	}
	return ic.MethodSpec{Query: m.Kind == MethodReadOnly, Update: true}, true
}

// APIReferenceMarkdown renders the registry as the README's API reference
// table (cmd/apidoc regenerates it; a canister test pins the README copy to
// this output so the docs cannot drift from the code).
func APIReferenceMarkdown() string {
	var b strings.Builder
	b.WriteString("| method | kind | args | result | cost class | cacheable |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, m := range methodTable {
		cacheable := "no"
		if m.Cacheable {
			cacheable = "yes"
		}
		fmt.Fprintf(&b, "| `%s` | %s | `%s` | `%s` | %s | %s |\n",
			m.Name, m.Kind, m.ArgsDoc, m.ResultDoc, m.Cost, cacheable)
	}
	return b.String()
}
