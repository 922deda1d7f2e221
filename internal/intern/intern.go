// Package intern provides a small bounded string-interning table keyed
// by bytes. The IDS and the ingestion lanes look up Call-IDs, media keys
// and flood destinations that arrive as byte slices; interning returns
// a stable string for repeat visitors without materializing a new
// string per packet, and without growing unboundedly under a churn of
// unique keys.
//
// The table keeps two generations of at most cap entries each. A hit
// in the current generation costs one map probe (the compiler elides
// the []byte→string conversion used as a map key); a hit in the
// previous generation is promoted. When the current generation fills,
// it becomes the previous one and the old previous generation is
// dropped — an LRU-ish bound: any key referenced within the last cap
// inserts survives rotation.
package intern

// Table is a bounded two-generation intern table. Not safe for
// concurrent use; each IDS instance and each ingestion lane own one.
type Table struct {
	cap  int
	cur  map[string]string
	prev map[string]string
}

// New returns a table bounded at roughly 2×cap entries.
func New(cap int) *Table {
	if cap < 1 {
		cap = 1
	}
	return &Table{
		cap:  cap,
		cur:  make(map[string]string, cap),
		prev: make(map[string]string),
	}
}

// Bytes returns the interned string equal to b, inserting it on first
// sight. Lookups for known keys do not allocate.
//
//vids:noalloc per-packet Call-ID/media-key lookup
func (t *Table) Bytes(b []byte) string {
	if s, ok := t.cur[string(b)]; ok {
		return s
	}
	if s, ok := t.prev[string(b)]; ok {
		t.put(s)
		return s
	}
	s := string(b) //vids:alloc-ok first sight of a key only; later lookups hit the generation maps
	t.put(s)
	return s
}

// String returns the interned string equal to s, inserting it on
// first sight. Callers holding a transient string (a parsed Call-ID)
// use this so the retained copy is shared across the call's lifetime.
//
//vids:noalloc per-packet interning of already-materialized keys
func (t *Table) String(s string) string {
	if is, ok := t.cur[s]; ok {
		return is
	}
	if is, ok := t.prev[s]; ok {
		t.put(is)
		return is
	}
	t.put(s)
	return s
}

// Len reports the live entry count across both generations.
func (t *Table) Len() int { return len(t.cur) + len(t.prev) }

func (t *Table) put(s string) {
	if len(t.cur) >= t.cap {
		t.prev, t.cur = t.cur, t.prev
		clear(t.cur)
	}
	//vids:panic-ok New, the only constructor, makes both generations and rotation only swaps them
	t.cur[s] = s //vids:alloc-ok insert on first sight; generation rotation bounds both maps
}
