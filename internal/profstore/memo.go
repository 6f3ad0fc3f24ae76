package profstore

// Epoch-keyed memo cache for /agg and /regress.
//
// The store's epoch counter advances after every shard insert. A cached
// report is valid only for the epoch it was computed under; the first
// lookup after an ingest misses and recomputes. To never cache a result
// that straddles an ingest, the protocol is capture-compute-recheck:
//
//  1. capture the epoch BEFORE selecting jobs,
//  2. compute the report,
//  3. store it only if the epoch is still the captured one.
//
// If an ingest landed anywhere in between, the recheck fails and the
// (possibly mid-ingest) report is returned to the caller but not cached
// — correct for that caller (a plain walk at that moment could have seen
// the same corpus) and invisible to later ones. On a quiescent store the
// cache therefore always serves exactly what a fresh walk would produce,
// which keeps /agg and /regress byte-identical under concurrency and
// across WAL recovery.
//
// Cached values are shared between callers: they are never mutated after
// they are built.

// memoKey identifies one cacheable query.
type memoKey struct {
	kind string // "agg", "regress", "wire" or "ext" (Memo)
	a, b string // selectors
	n    int    // TopN (agg)
	th   float64
}

// memoLookup returns the cached report for key if one was stored under
// epoch ep.
func (s *Store) memoLookup(ep uint64, key memoKey) (any, bool) {
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if s.memoEpoch != ep || s.memo == nil {
		return nil, false
	}
	rep, ok := s.memo[key]
	return rep, ok
}

// memoStore caches rep under key iff the store epoch is still ep (see the
// protocol above). Advancing to a new epoch drops every older entry.
func (s *Store) memoStore(ep uint64, key memoKey, rep any) {
	if s.epoch.Load() != ep {
		return // an ingest raced the computation; do not cache
	}
	s.memoMu.Lock()
	defer s.memoMu.Unlock()
	if s.epoch.Load() != ep {
		return
	}
	if s.memoEpoch != ep || s.memo == nil {
		s.memoEpoch = ep
		s.memo = make(map[memoKey]any)
	}
	s.memo[key] = rep
}

// Memo returns the value cached under key for the store's current epoch,
// calling compute on a miss and caching its result by the protocol
// above. It lets a layer over the store (a cluster member's
// primary-owner partials) cache what it derives from the corpus with the
// store's own invalidation, lazily at read time. compute must depend on
// the corpus alone, and callers must not mutate the shared result.
func (s *Store) Memo(key string, compute func() any) any {
	mk := memoKey{kind: "ext", a: key}
	ep := s.epoch.Load()
	if v, ok := s.memoLookup(ep, mk); ok {
		return v
	}
	v := compute()
	s.memoStore(ep, mk, v)
	return v
}
