package btc

// ScriptIDCache memoizes ScriptID derivations. Deriving the bucket key for
// a locking script means an address decode (base58check or bech32 encode)
// or, for non-standard scripts, a SHA-256 — per output, this dominates the
// cost of indexing a block. Real traffic repeats scripts heavily (one
// address receives many outputs, often within one block), so a cache turns
// the per-output derivation into a map probe.
//
// The cache is a deterministic pure function of the scripts looked up, so
// replicas feeding identical blocks stay in lockstep. It is not
// synchronized; callers are single-goroutine (the execution layer).
type ScriptIDCache struct {
	network Network
	ids     map[string]string
}

// maxScriptIDCacheEntries bounds the cache; when full it resets wholesale
// (deterministically) rather than evicting, keeping the common case —
// a working set far below the bound — allocation-free.
const maxScriptIDCacheEntries = 1 << 16

// NewScriptIDCache creates an empty cache for a network.
func NewScriptIDCache(network Network) *ScriptIDCache {
	return &ScriptIDCache{network: network, ids: make(map[string]string, 256)}
}

// ID returns ScriptID(script, network), memoized. The lookup converts the
// script to a map key without allocating (the compiler's string(b) map-index
// fast path); only a miss copies the script and derives the ID.
func (c *ScriptIDCache) ID(script []byte) string {
	if id, ok := c.ids[string(script)]; ok {
		return id
	}
	id := ScriptID(script, c.network)
	if len(c.ids) >= maxScriptIDCacheEntries {
		c.ids = make(map[string]string, 256)
	}
	c.ids[string(script)] = id
	return id
}
