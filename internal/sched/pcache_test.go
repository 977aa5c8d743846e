package sched

import "testing"

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
