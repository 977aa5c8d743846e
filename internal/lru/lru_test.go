package lru

import (
	"fmt"
	"math/rand"
	"testing"
)

// identity charges an int64 value its own magnitude, so each test picks
// its entry sizes directly.
func identity(v int64) int64 { return v }

func unit(int) int64 { return 1 }

func TestCacheHitMissEvict(t *testing.T) {
	const size = 100
	// Budget for sixteen entries: each stays at or below budget/8, so all
	// are admitted on first offer.
	budget := int64(16 * size)
	c := New(budget, identity)

	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	if !c.Add("a", size) {
		t.Fatal("small entry not admitted on first offer")
	}
	got, ok := c.Get("a")
	if !ok || got != size {
		t.Fatal("admitted entry not returned")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != size {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry, %d bytes", st, size)
	}

	// Fill past budget: the least recently used entries must fall off, in
	// recency order.
	for i := 0; i < 20; i++ {
		c.Add(fmt.Sprint("k", i), size)
	}
	st = c.Stats()
	if st.Bytes > budget {
		t.Fatalf("resident %d bytes over budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("over-budget fill evicted nothing")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("oldest entry survived an over-budget fill")
	}
	if _, ok := c.Get("k19"); !ok {
		t.Fatal("most recent entry was evicted")
	}
}

func TestCacheHeavyAdmission(t *testing.T) {
	const heavy, light = 4000, 10
	// heavy > budget/8, light far below it.
	c := New(4*heavy, identity)

	if c.Add("heavy", heavy) {
		t.Fatal("heavy entry admitted on first offer")
	}
	if _, ok := c.Get("heavy"); ok {
		t.Fatal("rejected entry resident")
	}
	if !c.Add("heavy", heavy) {
		t.Fatal("heavy entry not admitted on second offer (doorkeeper)")
	}
	if _, ok := c.Get("heavy"); !ok {
		t.Fatal("admitted heavy entry missing")
	}
	if !c.Add("light", light) {
		t.Fatal("light entry not admitted on first offer")
	}

	// An entry above the whole budget is never admitted.
	const giant = 100000
	tiny := New(giant/2, identity)
	for i := 0; i < 3; i++ {
		if tiny.Add("giant", giant) {
			t.Fatal("entry larger than the budget admitted")
		}
	}
}

// TestCacheDoorkeeperAges checks that the doorkeeper forgets: a heavy key
// stays remembered through one generation turnover and is forgotten
// after the second, so ghost keys cost bounded memory.
func TestCacheDoorkeeperAges(t *testing.T) {
	c := New(80, identity) // every entry of cost 11 or more is heavy
	offer := func(i int) bool { return c.Add(fmt.Sprint("h", i), 40) }
	for i := 0; i <= doorkeeperCap; i++ { // the last offer turns the young generation old
		if offer(i) {
			t.Fatalf("heavy key h%d admitted on first offer", i)
		}
	}
	if !offer(0) {
		t.Fatal("heavy key in the old generation not admitted on its second offer")
	}
	for i := doorkeeperCap + 1; i <= 2*doorkeeperCap; i++ { // a second turnover drops h1's generation
		offer(i)
	}
	if offer(1) {
		t.Fatal("heavy key admitted after its doorkeeper generation was dropped")
	}
}

func TestCachePurge(t *testing.T) {
	c := New(1<<30, identity)
	for i := 0; i < 5; i++ {
		c.Add(fmt.Sprint("k", i), 50)
	}
	heavy := int64(1<<30) / 4
	if c.Add("heavy", heavy) {
		t.Fatal("heavy entry admitted on first offer")
	}
	if n := c.Purge(); n != 5 {
		t.Fatalf("Purge dropped %d entries, want 5", n)
	}
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("post-purge stats = %+v, want empty", st)
	}
	if st.Evictions != 5 {
		t.Fatalf("purge counted %d evictions, want 5", st.Evictions)
	}
	if _, ok := c.Get("k0"); ok {
		t.Fatal("purged entry resident")
	}
	// The doorkeeper survives a purge: the heavy key's second offer is
	// admitted.
	if !c.Add("heavy", heavy) {
		t.Fatal("purge reset the doorkeeper")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := New(1<<24, identity)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				k := (g + i) % 8
				if _, ok := c.Get(fmt.Sprint("k", k)); !ok {
					c.Add(fmt.Sprint("k", k), int64(1000+k))
				}
				if i%50 == 49 {
					c.Purge()
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	st := c.Stats()
	if st.Hits+st.Misses != 4*200 {
		t.Fatalf("hits %d + misses %d != 800 gets", st.Hits, st.Misses)
	}
}

func TestCacheEviction(t *testing.T) {
	c := New(2, unit)
	c.Add("a", 0)
	c.Add("b", 0)
	if _, ok := c.Get("a"); !ok { // touches a, making b the eviction victim
		t.Fatal("a missing")
	}
	c.Add("c", 0)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a wrongly evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
}

// TestCacheUnitCostLRUOrder replays a fixed mix of Gets and Adds of
// unit-cost entries against a reference LRU at every budget from 1 to 16:
// every entry is admitted on its first offer (a unit is never heavy),
// every Get hits exactly when the reference holds the key, and a resident
// key keeps the value it was admitted with.
func TestCacheUnitCostLRUOrder(t *testing.T) {
	for budget := 1; budget <= 16; budget++ {
		c := New(int64(budget), unit)
		rng := rand.New(rand.NewSource(int64(budget)))
		var ref []string // most recently used first
		val := map[string]int{}
		touch := func(k string) bool {
			for i, r := range ref {
				if r == k {
					copy(ref[1:i+1], ref[:i])
					ref[0] = k
					return true
				}
			}
			return false
		}
		evicted := 0
		for op := 0; op < 50*budget; op++ {
			k := fmt.Sprint("k", rng.Intn(2*budget))
			if rng.Intn(2) == 0 {
				v, ok := c.Get(k)
				if want := touch(k); ok != want {
					t.Fatalf("budget %d, op %d: Get(%s) hit=%v, reference says %v", budget, op, k, ok, want)
				}
				if ok && v != val[k] {
					t.Fatalf("budget %d, op %d: Get(%s) = %d, want the admitted value %d", budget, op, k, v, val[k])
				}
				continue
			}
			if !c.Add(k, op) {
				t.Fatalf("budget %d, op %d: unit-cost entry %s not admitted", budget, op, k)
			}
			if !touch(k) {
				ref = append([]string{k}, ref...)
				val[k] = op
				if len(ref) > budget {
					delete(val, ref[budget])
					ref = ref[:budget]
					evicted++
				}
			}
		}
		st := c.Stats()
		if st.Entries != int64(len(ref)) || st.Bytes != st.Entries || st.Evictions != int64(evicted) {
			t.Fatalf("budget %d: stats %+v, want %d entries costing one unit each and %d evictions",
				budget, st, len(ref), evicted)
		}
	}
}

func TestNewRejectsNonPositiveBudget(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", budget)
				}
			}()
			New(budget, unit)
		}()
	}
}

// TestNilCacheStats pins the form a disabled cache takes: a nil *Cache
// reports zero stats, so it can be scraped like an enabled one.
func TestNilCacheStats(t *testing.T) {
	var c *Cache[int]
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zeros", st)
	}
}
