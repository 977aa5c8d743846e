package sched

import (
	"math/rand"
	"runtime"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

func pcacheTree(seed int64, n int) *Precompute {
	return NewPrecompute(allocTree(seed, n))
}

func TestPrecomputeSizeBytes(t *testing.T) {
	small, big := pcacheTree(1, 10), pcacheTree(2, 1000)
	if s, b := small.SizeBytes(), big.SizeBytes(); s >= b {
		t.Fatalf("SizeBytes not monotone in n: %d nodes -> %d, %d nodes -> %d",
			small.t.Len(), s, big.t.Len(), b)
	}
	want := precomputeFixedBytes + 10*precomputePerNodeBytes
	if got := small.SizeBytes(); got != int64(want) {
		t.Fatalf("SizeBytes(10 nodes) = %d, want %d", got, want)
	}
}

// TestPrecomputeSizeBytesBoundsRetained measures what a fully
// materialized Precompute really keeps alive — its tree, Liu's index and
// every lazy field, faulted in by running every heuristic once — and
// requires SizeBytes to bound it on each core family at 10³ and 10⁴
// nodes. The Precompute cache charges admissions with SizeBytes, so state
// that a Precompute retains without charging it would let the cache
// outgrow its byte budget. Retained bytes are the HeapAlloc difference
// across construction, each side read after two collections (the second
// empties the sync.Pools, so scheduler scratch is not counted).
func TestPrecomputeSizeBytesBoundsRetained(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
	families := []struct {
		name string
		gen  func(rng *rand.Rand, n int) *tree.Tree
	}{
		{"attachment", func(rng *rand.Rand, n int) *tree.Tree { return tree.RandomAttachment(rng, n, ws) }},
		{"binary", func(rng *rand.Rand, n int) *tree.Tree { return tree.RandomBinary(rng, n, ws) }},
		{"chain", func(rng *rand.Rand, n int) *tree.Tree { return tree.Chain(rng, n, ws) }},
		{"fork", func(rng *rand.Rand, n int) *tree.Tree { return tree.Fork(rng, n, ws) }},
		{"caterpillar", func(rng *rand.Rand, n int) *tree.Tree { return tree.Caterpillar(rng, n/4, 3, ws) }},
	}
	heapAlloc := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, fam := range families {
		for _, n := range []int{1_000, 10_000} {
			rng := rand.New(rand.NewSource(int64(n)))
			before := heapAlloc()
			pc := NewPrecompute(fam.gen(rng, n))
			for id := HeuristicID(0); id < numHeuristicIDs; id++ {
				if id == IDExact || id == IDAuto {
					continue
				}
				if _, err := pc.Run(id, machine.Uniform(4), 2*pc.MSeq()); err != nil {
					t.Fatalf("%s/%d %s: %v", fam.name, n, id, err)
				}
			}
			retained := heapAlloc() - before
			size := pc.SizeBytes()
			nodes := pc.Tree().Len()
			runtime.KeepAlive(pc)
			t.Logf("%s/%d: retains %d B (%.1f B/node), SizeBytes %d", fam.name, nodes, retained, float64(retained)/float64(nodes), size)
			if retained > size {
				t.Errorf("%s/%d: a materialized Precompute retains %d B, above its SizeBytes %d", fam.name, nodes, retained, size)
			}
		}
	}
}
