package ic

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"reflect"
	"sort"
)

// Canonical response digests. Certified responses are hashed before the
// subnet threshold-signs them, so the digest must be a pure function of the
// response *value*: two replicas (or two runs) holding equal state must
// produce the identical digest. Go walks maps in randomized iteration order,
// so the encoder below walks values with reflection and appends every
// container canonically: struct fields in declaration order, slices in
// element order, and map entries sorted by their encoded key bytes.

// responseDigestDomain separates response digests from any other use of
// SHA-256 in the system (and versions the canonical encoding itself).
const responseDigestDomain = "icbtc/response-digest/v1\n"

// ResponseDigest computes the canonical digest of a canister response: the
// returned value and the error (by message). Equal values — including
// map-valued results regardless of insertion order — always produce equal
// digests.
func ResponseDigest(value any, err error) [32]byte {
	b := make([]byte, 0, 512) // a balance envelope fits; a page grows it a few times
	b = appendCanonical(append(b, responseDigestDomain...), reflect.ValueOf(value))
	if err != nil {
		b = appendString(append(b, 'E'), err.Error())
	} else {
		b = append(b, '0')
	}
	return sha256.Sum256(b)
}

// CertifiedQuery is the envelope a read replica certifies: the response of
// one query method bound to the chain position it was served at. The fleet
// signs ResponseDigest(CertifiedQuery{...}, nil); any holder of the subnet
// public key rebuilds the envelope from the response and verifies it with
// Subnet.VerifyCertified — the certification the paper notes plain queries
// lack ("cannot be fully trusted", §IV-B).
type CertifiedQuery struct {
	// Method is the query method name, so a valid signature over one
	// endpoint's response cannot be replayed as another's.
	Method string
	// Value is the response value; ErrText the error message ("" if none).
	Value   any
	ErrText string
	// AnchorHeight/TipHeight bind the response to the serving replica's
	// chain position (its anchor β* and considered-chain tip).
	AnchorHeight int64
	TipHeight    int64
}

// ErrText renders an error for a CertifiedQuery envelope.
func ErrText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func appendString(b []byte, s string) []byte {
	return append(appendU64(b, uint64(len(s))), s...)
}

// appendCanonical appends v's canonical encoding to b. Every value is
// prefixed with a one-byte kind tag (and structs with their type name) so
// distinct shapes cannot collide by concatenation.
func appendCanonical(b []byte, v reflect.Value) []byte {
	if !v.IsValid() {
		return append(b, 'z') // nil interface
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 'b', 1)
		}
		return append(b, 'b', 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return appendU64(append(b, 'i'), uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return appendU64(append(b, 'u'), v.Uint())
	case reflect.Float32, reflect.Float64:
		return appendU64(append(b, 'f'), math.Float64bits(v.Float()))
	case reflect.String:
		return appendString(append(b, 's'), v.String())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 'z')
		}
		return appendSequence(b, v)
	case reflect.Array:
		return appendSequence(b, v)
	case reflect.Map:
		if v.IsNil() {
			return append(b, 'z')
		}
		return appendCanonicalMap(b, v)
	case reflect.Struct:
		t := v.Type()
		b = appendString(append(b, 't'), t.String())
		n := v.NumField()
		b = appendU64(b, uint64(n))
		for i := 0; i < n; i++ {
			b = appendString(b, t.Field(i).Name)
			b = appendCanonical(b, v.Field(i))
		}
		return b
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			return append(b, 'z')
		}
		return appendCanonical(append(b, 'p'), v.Elem())
	default:
		// Channels, funcs, unsafe pointers: identity is not value-like;
		// hash the type name only so the digest stays total (a canister
		// returning one of these is a bug the tests catch, not a panic).
		return appendString(append(b, '?'), v.Type().String())
	}
}

// appendSequence appends a slice or array element by element, with a fast
// path for byte slices/arrays.
func appendSequence(b []byte, v reflect.Value) []byte {
	n := v.Len()
	if v.Type().Elem().Kind() == reflect.Uint8 {
		b = appendU64(append(b, 'y'), uint64(n))
		if v.Kind() == reflect.Slice {
			return append(b, v.Bytes()...)
		}
		for i := 0; i < n; i++ {
			b = append(b, byte(v.Index(i).Uint()))
		}
		return b
	}
	b = appendU64(append(b, 'l'), uint64(n))
	for i := 0; i < n; i++ {
		b = appendCanonical(b, v.Index(i))
	}
	return b
}

// appendCanonicalMap appends map entries sorted by their encoded key bytes —
// the step that makes map-valued results certify identically no matter the
// iteration order of the underlying table.
func appendCanonicalMap(b []byte, v reflect.Value) []byte {
	type entry struct{ key, val []byte }
	entries := make([]entry, 0, v.Len())
	it := v.MapRange()
	for it.Next() {
		entries = append(entries, entry{
			key: appendCanonical(nil, it.Key()),
			val: appendCanonical(nil, it.Value()),
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		return string(entries[i].key) < string(entries[j].key)
	})
	b = appendU64(append(b, 'm'), uint64(len(entries)))
	for _, e := range entries {
		b = append(append(b, e.key...), e.val...)
	}
	return b
}
