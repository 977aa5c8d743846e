package portfolio

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"treesched/internal/machine"
	"treesched/internal/obs"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

func portfolioTestTree(tb testing.TB, seed int64, n int) *tree.Tree {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	return tree.RandomAttachment(rng, n, tree.WeightSpec{
		WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20,
	})
}

// TestRunHeterogeneousMachine races the default candidates on a 2-speed
// machine: every candidate must schedule for the model's processor count,
// the lower bound must be speed-scaled, and a winner must emerge.
func TestRunHeterogeneousMachine(t *testing.T) {
	tr := portfolioTestTree(t, 9, 120)
	m, err := machine.ParseSpec("2x1.0+2x0.5")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), tr, MinMakespan(), Options{Options: sched.Options{Machine: m}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Processors != 4 || res.Machine != m {
		t.Errorf("result machine = p%d %v, want p4 on the explicit model", res.Processors, res.Machine)
	}
	if want := sched.MakespanLowerBoundOn(tr, m); res.MakespanLB != want {
		t.Errorf("MakespanLB = %v, want speed-scaled %v", res.MakespanLB, want)
	}
	w, ok := res.WinnerCandidate()
	if !ok {
		t.Fatal("no winner on the heterogeneous machine")
	}
	if w.Err != nil || w.Makespan <= 0 {
		t.Errorf("winner not runnable: %+v", w)
	}
	for _, c := range res.Candidates {
		if c.Err != nil {
			t.Errorf("candidate %s failed on the heterogeneous machine: %v", c.ID, c.Err)
		}
	}
}

func TestRunDefaultPortfolio(t *testing.T) {
	tr := portfolioTestTree(t, 1, 120)
	res, err := Run(context.Background(), tr, MinMakespan(), Options{Options: sched.Options{Processors: 4}})
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultCandidates()
	if len(res.Candidates) != len(want) {
		t.Fatalf("%d candidates, want %d", len(res.Candidates), len(want))
	}
	for i, c := range res.Candidates {
		if c.ID != want[i] {
			t.Errorf("candidate %d is %s, want %s", i, c.ID, want[i])
		}
		if c.Err != nil {
			t.Errorf("%s failed: %v", c.ID, c.Err)
			continue
		}
		if c.Makespan < res.MakespanLB-1e-9 {
			t.Errorf("%s makespan %g beats the lower bound %g", c.ID, c.Makespan, res.MakespanLB)
		}
		if c.PeakMemory < res.MemorySeq && c.ID != sched.IDOptimalSequential {
			t.Errorf("%s memory %d below M_seq %d", c.ID, c.PeakMemory, res.MemorySeq)
		}
		if res.MakespanLB > 0 && c.MakespanRatio != c.Makespan/res.MakespanLB {
			t.Errorf("%s makespan ratio %g inconsistent", c.ID, c.MakespanRatio)
		}
	}
	// The Sequential baseline anchors the memory end of the frontier.
	seq := res.Candidates[len(res.Candidates)-1]
	if seq.ID != sched.IDSequential || seq.PeakMemory != res.MemorySeq {
		t.Errorf("Sequential candidate peak %d, want M_seq %d", seq.PeakMemory, res.MemorySeq)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	if res.Winner < 0 || !res.OnFrontier(res.Winner) {
		t.Errorf("winner %d not on frontier %v", res.Winner, res.Frontier)
	}
	if w, ok := res.WinnerCandidate(); !ok || w.ID != res.Candidates[res.Winner].ID {
		t.Errorf("WinnerCandidate inconsistent: %+v ok=%v", w, ok)
	}
	// MinMakespan's winner has the minimum makespan over all candidates.
	for _, c := range res.Candidates {
		if c.Err == nil && c.Makespan < res.Candidates[res.Winner].Makespan {
			t.Errorf("winner makespan %g beaten by %s at %g",
				res.Candidates[res.Winner].Makespan, c.ID, c.Makespan)
		}
	}
}

func TestRunDeterministicAcrossRacingOrders(t *testing.T) {
	tr := portfolioTestTree(t, 2, 150)
	opts := Options{Options: sched.Options{Processors: 8}}
	ref, err := Run(context.Background(), tr, Weighted(0.5), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, len(DefaultCandidates())} {
		opts.Parallelism = par
		res, err := Run(context.Background(), tr, Weighted(0.5), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Winner != ref.Winner || !reflect.DeepEqual(res.Frontier, ref.Frontier) {
			t.Fatalf("parallelism %d: winner %d frontier %v, want %d %v",
				par, res.Winner, res.Frontier, ref.Winner, ref.Frontier)
		}
		for i := range res.Candidates {
			a, b := res.Candidates[i], ref.Candidates[i]
			if a.ID != b.ID || a.Makespan != b.Makespan || a.PeakMemory != b.PeakMemory {
				t.Fatalf("parallelism %d: candidate %d differs: %+v vs %+v", par, i, a, b)
			}
		}
	}
}

func TestRunWithCappedCandidates(t *testing.T) {
	tr := portfolioTestTree(t, 3, 100)
	opts := Options{Options: sched.Options{
		Processors:   4,
		Heuristics:   []sched.HeuristicID{sched.IDParDeepestFirst, sched.IDMemCapped, sched.IDMemCappedBooking, sched.IDSequential},
		MemCapFactor: 1.5,
	}}
	res, err := Run(context.Background(), tr, MakespanUnderMemCap(1.5), opts)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := res.WinnerCandidate()
	if !ok {
		t.Fatal("no winner")
	}
	if float64(w.PeakMemory) > 1.5*float64(res.MemorySeq) {
		t.Errorf("winner %s peak %d violates the 1.5×M_seq cap (M_seq %d)", w.ID, w.PeakMemory, res.MemorySeq)
	}
}

func TestRunValidation(t *testing.T) {
	tr := portfolioTestTree(t, 4, 20)
	if _, err := Run(context.Background(), nil, MinMakespan(), Options{Options: sched.Options{Processors: 2}}); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := Run(context.Background(), tr, Weighted(2), Options{Options: sched.Options{Processors: 2}}); err == nil {
		t.Error("invalid objective accepted")
	}
	if _, err := Run(context.Background(), tr, MinMakespan(), Options{}); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Run(context.Background(), tr, MinMakespan(), Options{Options: sched.Options{
		Processors: 2, Heuristics: []sched.HeuristicID{sched.IDAuto},
	}}); err == nil {
		t.Error("Auto inside a portfolio candidate set accepted")
	}
}

func TestRunCanceledContext(t *testing.T) {
	tr := portfolioTestTree(t, 5, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, tr, MinMakespan(), Options{Options: sched.Options{Processors: 2}}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRacePanicContainment(t *testing.T) {
	tr := portfolioTestTree(t, 6, 30)
	hs := []sched.Heuristic{
		{ID: sched.IDParSubtrees, Name: "ParSubtrees", RunOn: func(t *tree.Tree, m *machine.Model) (*sched.Schedule, error) {
			return sched.NewPrecompute(t).Run(sched.IDParSubtrees, m, 0)
		}},
		{ID: sched.IDParDeepestFirst, Name: "boom", RunOn: func(*tree.Tree, *machine.Model) (*sched.Schedule, error) {
			panic("synthetic heuristic panic")
		}},
	}
	cands, _ := race(context.Background(), tr, machine.Uniform(2), hs, 2, nil, obs.RootSpan)
	if cands[0].Err != nil {
		t.Errorf("healthy candidate infected: %v", cands[0].Err)
	}
	if cands[1].Err == nil || !strings.Contains(cands[1].Err.Error(), "panicked") {
		t.Errorf("panic not contained as an error: %+v", cands[1])
	}
}

func TestRaceRunsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single CPU")
	}
	tr := portfolioTestTree(t, 7, 5)
	// Four stub candidates that each sleep: racing them must overlap, so
	// the wall time stays well under the sum of per-candidate times.
	const naps = 4
	const nap = 50 * time.Millisecond
	var peak, cur atomic.Int32
	stub := func(*tree.Tree, *machine.Model) (*sched.Schedule, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(nap)
		cur.Add(-1)
		return sched.SequentialSchedule(tr, machine.Uniform(1), tr.TopOrder())
	}
	hs := make([]sched.Heuristic, naps)
	for i := range hs {
		hs[i] = sched.Heuristic{ID: sched.HeuristicID(i), Name: "stub", RunOn: stub}
	}
	start := time.Now()
	cands, _ := race(context.Background(), tr, machine.Uniform(1), hs, naps, nil, obs.RootSpan)
	wall := time.Since(start)
	var sum time.Duration
	for _, c := range cands {
		if c.Err != nil {
			t.Fatalf("stub failed: %v", c.Err)
		}
		sum += c.Elapsed
	}
	if peak.Load() < 2 {
		t.Errorf("candidates never overlapped (peak concurrency %d)", peak.Load())
	}
	if wall >= sum {
		t.Errorf("race wall time %v not below sum of candidate times %v", wall, sum)
	}
}

func TestRaceRespectsParallelismBound(t *testing.T) {
	tr := portfolioTestTree(t, 8, 5)
	var peak, cur atomic.Int32
	stub := func(*tree.Tree, *machine.Model) (*sched.Schedule, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return sched.SequentialSchedule(tr, machine.Uniform(1), tr.TopOrder())
	}
	hs := make([]sched.Heuristic, 8)
	for i := range hs {
		hs[i] = sched.Heuristic{ID: sched.HeuristicID(i % 2), Name: "stub", RunOn: stub}
	}
	race(context.Background(), tr, machine.Uniform(1), hs, 2, nil, obs.RootSpan)
	if p := peak.Load(); p > 2 {
		t.Errorf("peak concurrency %d exceeds parallelism bound 2", p)
	}
}

// TestRunPreSharedPrecomputeConcurrent races many RunPre calls over one
// shared Precompute — the service's cross-request cache serves exactly
// this shape — and checks every race resolves the lazy per-tree state
// safely (run under -race) and lands on identical results.
func TestRunPreSharedPrecomputeConcurrent(t *testing.T) {
	tr := portfolioTestTree(t, 8, 200)
	pc := sched.NewPrecompute(tr)
	ref, err := RunPre(context.Background(), pc, MinMakespan(),
		Options{Options: sched.Options{Processors: 4}, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	const racers = 4
	results := make([]*Result, racers)
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Vary p and parallelism across racers: different machine sizes
			// resolve different lazy rank state off the one shared context.
			results[i], errs[i] = RunPre(context.Background(), pc, MinMakespan(),
				Options{Options: sched.Options{Processors: 4}, Parallelism: 1 + i%3})
		}(i)
	}
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		res := results[i]
		if res.Winner != ref.Winner || !reflect.DeepEqual(res.Frontier, ref.Frontier) {
			t.Fatalf("racer %d: winner %d frontier %v, want %d %v",
				i, res.Winner, res.Frontier, ref.Winner, ref.Frontier)
		}
		for c := range res.Candidates {
			a, b := res.Candidates[c], ref.Candidates[c]
			if a.ID != b.ID || a.Makespan != b.Makespan || a.PeakMemory != b.PeakMemory {
				t.Fatalf("racer %d candidate %d differs: %+v vs %+v", i, c, a, b)
			}
		}
	}
}

// TestRunTraceSpanShape pins the race's span shape at one lane and at
// several: one candidate:<id> span per candidate under TraceParent, each
// with a schedule and an evaluate child, in the same shape either way.
func TestRunTraceSpanShape(t *testing.T) {
	tr := portfolioTestTree(t, 12, 60)
	for _, lanes := range []int{1, 3} {
		trace := obs.AcquireTrace()
		res, err := Run(context.Background(), tr, MinMakespan(), Options{
			Options: sched.Options{Processors: 2}, Parallelism: lanes,
			Trace: trace, TraceParent: obs.RootSpan,
		})
		if err != nil {
			t.Fatal(err)
		}
		root := trace.Tree()
		trace.Release()
		if len(root.Spans) != len(res.Candidates) {
			t.Fatalf("lanes=%d: %d top-level spans for %d candidates", lanes, len(root.Spans), len(res.Candidates))
		}
		seen := map[string]bool{}
		for _, n := range root.Spans {
			seen[n.Name] = true
			if len(n.Spans) != 2 || n.Spans[0].Name != "schedule" || n.Spans[1].Name != "evaluate" {
				t.Errorf("lanes=%d: %s children %+v, want schedule then evaluate", lanes, n.Name, n.Spans)
			}
		}
		for _, c := range res.Candidates {
			if !seen["candidate:"+c.ID.String()] {
				t.Errorf("lanes=%d: candidate %s has no span", lanes, c.ID)
			}
		}
	}
}

func TestExactSelectionHelpers(t *testing.T) {
	ids := []sched.HeuristicID{sched.IDParSubtrees, sched.IDExact, sched.IDSequential}
	if !HasExact(ids) || HasExact(ids[:1]) {
		t.Error("HasExact misreports the selection")
	}
	if got := WithoutExact(ids); !reflect.DeepEqual(got, []sched.HeuristicID{sched.IDParSubtrees, sched.IDSequential}) {
		t.Errorf("WithoutExact = %v", got)
	}
	if got := WithoutExact([]sched.HeuristicID{sched.IDExact}); len(got) != 0 {
		t.Errorf("WithoutExact of an Exact-only selection = %v, want empty", got)
	}
}
