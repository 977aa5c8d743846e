package par

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 10000} {
		hits := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForEachActuallyParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single CPU")
	}
	var concurrent, peak int32
	// Each call waits until two calls have overlapped, or until a shared
	// deadline, so a loaded machine that starts the second worker late
	// cannot make a parallel ForEach look sequential, and a sequential one
	// still fails within the deadline.
	deadline := time.Now().Add(5 * time.Second)
	ForEach(64, func(i int) {
		c := atomic.AddInt32(&concurrent, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		for atomic.LoadInt32(&peak) < 2 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		atomic.AddInt32(&concurrent, -1)
	})
	if peak < 2 {
		t.Fatalf("never observed concurrent execution (peak=%d)", peak)
	}
}

func TestForEachSequentialFallback(t *testing.T) {
	// n=1 must run inline without spawning.
	ran := false
	ForEach(1, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("body not run")
	}
}
