package sched

import "treesched/internal/lru"

// PrecomputeCache is a size-aware, admission-weighted LRU over
// *Precompute, keyed by the caller (the service keys on the tree's
// CanonicalHash). It exists so repeat trees skip Liu's best-postorder DP
// and the priority-rank builds entirely: a hit hands back the shared
// per-tree context, which is safe for concurrent use after construction,
// so any number of in-flight requests — different heuristic sets,
// objectives, processor counts, machines — can schedule off one cached
// entry at once.
//
// The budget is in bytes (Precompute.SizeBytes per entry, retained tree
// included), not entries: one 10⁶-node tree costs as much as thousands of
// small ones, and an entry-count LRU would let it evict them all. Entries
// above 1/8 of the budget must be offered twice before they are admitted,
// and entries larger than the whole budget never are (see lru.Cache).
//
// All methods are safe for concurrent use. Get performs no allocation, so
// the request hot path stays on the zero-allocation budget of the
// scheduling core.
type PrecomputeCache = lru.Cache[*Precompute]

// PrecomputeCacheStats is a point-in-time snapshot of a PrecomputeCache;
// its Bytes are resident bytes by Precompute.SizeBytes.
type PrecomputeCacheStats = lru.Stats

// NewPrecomputeCache returns a cache bounded to budgetBytes (must be > 0).
func NewPrecomputeCache(budgetBytes int64) *PrecomputeCache {
	return lru.New(budgetBytes, (*Precompute).SizeBytes)
}
