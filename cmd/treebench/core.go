package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"treesched/internal/lru"
	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/service"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

// The core suite microbenchmarks the zero-allocation scheduling core —
// Liu's traversals, the rank-keyed list scheduler, the capped schedulers
// and the schedule evaluator — and the request decoders that feed it, per
// bench × tree family × size, and
// reports ns/op, allocs/op and ops/sec for each cell. The checked-in
// BENCH_core.json baseline turns it into a CI regression gate for both
// speed and allocation discipline.

// coreProcs is the machine size every scheduler bench uses.
const coreProcs = 8

// stressNodes sizes the large-tree stress row, ratcheted in the baseline.
const stressNodes = 1_000_000

// CoreEntry is one (bench, family, size) cell.
type CoreEntry struct {
	Bench     string  `json:"bench"`
	Family    string  `json:"family"`
	Nodes     int     `json:"nodes"`
	NsOp      float64 `json:"ns_op"`
	AllocsOp  float64 `json:"allocs_op"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// CoreReport is the JSON document of the core suite.
type CoreReport struct {
	Scale      string `json:"scale"`
	Seed       int64  `json:"seed"`
	Processors int    `json:"processors"`
	// Machine is the canonical heterogeneous spec of the */het rows, which
	// benchmark the speed-aware scheduler paths on a related-machines
	// model of the same processor count.
	Machine string      `json:"machine"`
	Entries []CoreEntry `json:"entries"`
	// SchedulesPerSec aggregates the scheduler benches (ParSubtrees,
	// ParInnerFirst, ParDeepestFirst, Sequential, MemCappedBooking):
	// schedules produced per second of pure scheduling time.
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	// MeanNsByBench and MeanAllocsByBench are the geometric means per
	// bench across families and sizes — the regression-gate keys.
	MeanNsByBench     map[string]float64 `json:"mean_ns_by_bench"`
	MeanAllocsByBench map[string]float64 `json:"mean_allocs_by_bench"`
}

// schedulerBenches are the benches counted into SchedulesPerSec.
var schedulerBenches = map[string]bool{
	"ParSubtrees":      true,
	"ParInnerFirst":    true,
	"ParDeepestFirst":  true,
	"Sequential":       true,
	"MemCappedBooking": true,
}

func coreMain(scale string, seed int64, machSpec, out, baseline string, maxratio float64) {
	var sizes []int
	var budget time.Duration
	switch scale {
	case "quick":
		sizes, budget = []int{1_000, 10_000}, 25*time.Millisecond
	case "standard":
		sizes, budget = []int{10_000, 100_000}, 100*time.Millisecond
	default:
		fatal(fmt.Errorf("unknown scale %q (quick or standard)", scale))
	}
	het, err := machine.ParseSpec(machSpec)
	if err != nil {
		fatal(err)
	}
	if het.P() != coreProcs {
		fatal(fmt.Errorf("core suite -machine must declare %d processors to compare against the uniform rows, got %d", coreProcs, het.P()))
	}
	rep := &CoreReport{
		Scale:             scale,
		Seed:              seed,
		Processors:        coreProcs,
		Machine:           het.Spec(),
		MeanNsByBench:     make(map[string]float64),
		MeanAllocsByBench: make(map[string]float64),
	}

	rng := rand.New(rand.NewSource(seed))
	ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
	families := []struct {
		name string
		gen  func(n int) *tree.Tree
	}{
		{"attachment", func(n int) *tree.Tree { return tree.RandomAttachment(rng, n, ws) }},
		{"binary", func(n int) *tree.Tree { return tree.RandomBinary(rng, n, ws) }},
		{"chain", func(n int) *tree.Tree { return tree.Chain(rng, n, ws) }},
		{"fork", func(n int) *tree.Tree { return tree.Fork(rng, n, ws) }},
		{"caterpillar", func(n int) *tree.Tree { return tree.Caterpillar(rng, n/4, 3, ws) }},
	}

	// pcCache backs the */batch rows: the cross-request Precompute cache in
	// its steady state (every benched tree resident), so the row measures a
	// warm Get — the repeat-request path the service serves.
	pcCache := sched.NewPrecomputeCache(1 << 30)
	// aliases backs the Decode/request/alias rows the way treeschedd's
	// alias cache serves a verbatim repeat: warm with every benched body's
	// tree member, so the row measures the skim, the digest and a hit.
	aliases := lru.New(1<<20, func(tree.Alias) int64 { return 1 })
	aliasOf := func(k tree.AliasKey) (tree.Alias, bool) { return aliases.Get(string(k[:])) }

	uni := machine.Uniform(coreProcs)
	pairOpts := sched.Options{Processors: coreProcs,
		Heuristics: []sched.HeuristicID{sched.IDParSubtrees, sched.IDParSubtreesOptim}}
	paperOpts := sched.Options{Processors: coreProcs} // the paper's four heuristics
	var schedOps, schedNs float64
	for _, fam := range families {
		for _, n := range sizes {
			t := fam.gen(n)
			pc := sched.NewPrecompute(t) // shared, warm — the service's steady state
			cacheKey := fmt.Sprintf("%s/%d", fam.name, n)
			pcCache.Add(cacheKey, pc)
			cap2 := 2 * pc.MSeq()
			sPeak, err := pc.Run(sched.IDParInnerFirst, uni, 0)
			if err != nil {
				fatal(err)
			}
			sSim := cloneSchedule(sPeak)
			sSim.Invalidate() // force the event-replay path of PeakMemory
			sHet, err := pc.Run(sched.IDParInnerFirst, het, 0)
			if err != nil {
				fatal(err)
			}
			// The Decode rows read the tree from its two wire forms, and from
			// whole /v1/schedule request bodies, one per form, through the
			// envelope split.
			wireJSON, err := json.Marshal(t)
			if err != nil {
				fatal(err)
			}
			var wireText bytes.Buffer
			if err := t.Encode(&wireText); err != nil {
				fatal(err)
			}
			body := append([]byte(`{"id":"bench-1","p":8,"heuristics":["ParInnerFirst","ParDeepestFirst"],"tree":`), wireJSON...)
			body = append(body, `,"objective":"min_makespan"}`...)
			quotedText, err := json.Marshal(wireText.String())
			if err != nil {
				fatal(err)
			}
			textBody := append([]byte(`{"id":"bench-1","p":8,"heuristics":["ParInnerFirst","ParDeepestFirst"],"tree_text":`), quotedText...)
			textBody = append(textBody, `,"objective":"min_makespan"}`...)
			c, err := tree.DecodeEnvelopeAliased(body, service.DefaultMaxNodes, &service.Request{}, aliasOf)
			if err != nil {
				fatal(err)
			}
			m, err := c.Member()
			if err != nil {
				fatal(err)
			}
			aliases.Add(string(m.Key[:]), tree.Alias{Hash: t.CanonicalHash(), Nodes: t.Len()})
			benches := []struct {
				name string
				run  func()
			}{
				{"Precompute", func() { sched.NewPrecompute(t) }},
				{"Precompute/batch", func() {
					if _, ok := pcCache.Get(cacheKey); !ok {
						fatal(fmt.Errorf("warm Precompute cache missed %s", cacheKey))
					}
				}},
				{"BestPostOrder", func() { traversal.BestPostOrder(t) }},
				{"OptimalTraversal", func() { traversal.Optimal(t) }},
				{"ParSubtrees", func() { mustRun(pc.Run(sched.IDParSubtrees, uni, 0)) }},
				{"ParSubtreesOptim", func() { mustRun(pc.Run(sched.IDParSubtreesOptim, uni, 0)) }},
				// Both variants through one selection, as a race of the
				// paper's four heuristics runs them.
				{"ParSubtrees/pair", func() {
					hs, _, err := pairOpts.SelectPre(pc)
					if err != nil {
						fatal(err)
					}
					for _, h := range hs {
						mustRun(h.RunOn(t, uni))
					}
				}},
				// A request that misses both caches: a fresh Precompute and
				// the paper's four through one selection, so the row times
				// the rank builds and the splitting that the warm rows skip.
				{"Paper4/cold", func() {
					hs, _, err := paperOpts.SelectPre(sched.NewPrecompute(t))
					if err != nil {
						fatal(err)
					}
					for _, h := range hs {
						mustRun(h.RunOn(t, uni))
					}
				}},
				{"ParInnerFirst", func() { mustRun(pc.Run(sched.IDParInnerFirst, uni, 0)) }},
				{"ParDeepestFirst", func() { mustRun(pc.Run(sched.IDParDeepestFirst, uni, 0)) }},
				{"Sequential", func() { mustRun(sched.SequentialSchedule(t, uni, pc.Order())) }},
				{"MemCappedBooking", func() { mustRun(pc.Run(sched.IDMemCappedBooking, uni, cap2)) }},
				{"PeakMemory", func() { sched.PeakMemory(t, sSim) }},
				{"Evaluate", func() { mustEval(t, sPeak) }},
				// Heterogeneous rows: the same hot paths with speed-aware
				// processor picks and scaled durations, gated alongside the
				// uniform rows.
				{"ParSubtrees/het", func() { mustRun(pc.Run(sched.IDParSubtrees, het, 0)) }},
				{"ParInnerFirst/het", func() { mustRun(pc.Run(sched.IDParInnerFirst, het, 0)) }},
				{"ParDeepestFirst/het", func() { mustRun(pc.Run(sched.IDParDeepestFirst, het, 0)) }},
				{"MemCappedBooking/het", func() { mustRun(pc.Run(sched.IDMemCappedBooking, het, cap2)) }},
				{"Evaluate/het", func() { mustEval(t, sHet) }},
				{"Decode/json", func() {
					var d tree.Tree
					mustDecode(d.UnmarshalJSON(wireJSON))
				}},
				{"Decode/text", func() {
					_, err := tree.DecodeMax(bytes.NewReader(wireText.Bytes()), math.MaxInt)
					mustDecode(err)
				}},
				{"Decode/request", func() {
					var req service.Request
					c, err := tree.DecodeEnvelope(body, service.DefaultMaxNodes, &req)
					if err == nil {
						_, err = c.Tree()
					}
					mustDecode(err)
				}},
				// The same request carrying the text form in tree_text, as
				// Tree.Encode writes it: read in place from the JSON string.
				{"Decode/request/text", func() {
					var req service.Request
					c, err := tree.DecodeEnvelope(textBody, service.DefaultMaxNodes, &req)
					if err == nil {
						_, err = c.Tree()
					}
					mustDecode(err)
				}},
				{"Decode/request/alias", func() {
					var req service.Request
					c, err := tree.DecodeEnvelopeAliased(body, service.DefaultMaxNodes, &req, aliasOf)
					if err == nil {
						var m tree.Member
						if m, err = c.Member(); err == nil && m.Tree != nil {
							err = fmt.Errorf("warm alias cache missed the %s/%d body", fam.name, n)
						}
					}
					mustDecode(err)
				}},
			}
			for _, b := range benches {
				nsOp, allocsOp := measure(b.run, budget)
				e := CoreEntry{Bench: b.name, Family: fam.name, Nodes: t.Len(), NsOp: nsOp, AllocsOp: allocsOp}
				if nsOp > 0 {
					e.OpsPerSec = 1e9 / nsOp
				}
				rep.Entries = append(rep.Entries, e)
				if schedulerBenches[b.name] {
					schedOps++
					schedNs += nsOp
				}
			}
		}
	}
	// Stress row: one 10⁶-node tree, where the heap-driven σ-order loop
	// dominates ParInnerFirst, so the sequential core cannot regress
	// silently at production scale.
	stressT := tree.RandomAttachment(rng, stressNodes, ws)
	stressPC := sched.NewPrecompute(stressT)
	nsOp, allocsOp := measure(func() { mustRun(stressPC.Run(sched.IDParInnerFirst, uni, 0)) }, budget)
	stress := CoreEntry{Bench: "ParInnerFirst/stress1M", Family: "attachment", Nodes: stressT.Len(), NsOp: nsOp, AllocsOp: allocsOp}
	if nsOp > 0 {
		stress.OpsPerSec = 1e9 / nsOp
	}
	rep.Entries = append(rep.Entries, stress)

	// The observability record paths ride along: they are on every service
	// request, so they are ratcheted with the scheduling core.
	rep.Entries = append(rep.Entries, measureObsRows(budget)...)
	if schedNs > 0 {
		rep.SchedulesPerSec = schedOps * 1e9 / schedNs
	}
	fillCoreMeans(rep)
	printCoreReport(rep)

	if out != "" {
		writeReport(rep, out)
	}
	if baseline != "" {
		if err := coreGate(rep, baseline, ownsAll, maxratio); err != nil {
			fmt.Fprintln(os.Stderr, "treebench: REGRESSION:", err)
			os.Exit(1)
		}
		fmt.Printf("regression gate vs %s passed (maxratio %g)\n", baseline, maxratio)
	}
}

// writeReport writes rep as indented JSON to out.
func writeReport(rep *CoreReport, out string) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// measure times f in adaptively doubled batches until the budget is spent,
// reporting steady-state ns/op (one warmup run excluded) and allocs/op.
// Allocations are counted in a separate untimed pass of at most
// allocRuns calls (see allocsPerRun).
func measure(f func(), budget time.Duration) (nsOp, allocsOp float64) {
	f() // warmup: fill pools, fault in pages
	start := time.Now()
	iters := 0
	batch := 1
	var elapsed time.Duration
	for {
		for i := 0; i < batch; i++ {
			f()
		}
		iters += batch
		elapsed = time.Since(start)
		if elapsed >= budget {
			break
		}
		if batch < 1024 {
			batch *= 2
		}
	}
	return float64(elapsed.Nanoseconds()) / float64(iters), allocsPerRun(f, min(iters, allocRuns))
}

// allocRuns bounds the calls of the allocation pass; slow rows, which
// time fewer iterations, count over fewer.
const allocRuns = 16

// allocHeapBudget bounds the heap the allocation pass may grow while the
// collector is off: rows whose warm call allocates more than
// allocHeapBudget/allocRuns bytes count over fewer calls.
const allocHeapBudget = 256 << 20

// allocsPerRun returns the allocations per call of f over at most runs
// calls, counted as testing.AllocsPerRun counts them: under GOMAXPROCS 1,
// after one warm call, rounded down to a whole count. With more Ps the
// calling goroutine can migrate between Ps and miss the sync.Pool entry
// its last call left on another P, and every collection empties the pools,
// costing each an allocation on its next use: a row that allocates
// megabytes per call (Paper4/cold's fresh Precompute) would trigger
// collections inside the pass. So the pass starts after a collection and
// a warm call, and runs with the collector off, over as many calls as
// allocHeapBudget allows at the warm call's allocation volume. Otherwise
// both effects would count runtime noise as the code's allocations. The
// old GOMAXPROCS and GC percent are restored, and the pass's garbage is
// collected before the next row is timed.
func allocsPerRun(f func(), runs int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f() // refill the pools: GOMAXPROCS changes and collections empty them
	runtime.ReadMemStats(&after)
	if perCall := after.TotalAlloc - before.TotalAlloc; perCall > 0 {
		runs = max(1, min(runs, int(allocHeapBudget/perCall)))
	}
	gcPercent := debug.SetGCPercent(-1)
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	debug.SetGCPercent(gcPercent)
	runtime.GC() // the pass's garbage, collected before the next row's timing
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

func cloneSchedule(s *sched.Schedule) *sched.Schedule {
	return &sched.Schedule{
		Start: append([]float64(nil), s.Start...),
		Proc:  append([]int(nil), s.Proc...),
		P:     s.P,
	}
}

func mustRun(s *sched.Schedule, err error) {
	if err != nil {
		fatal(err)
	}
}

func mustDecode(err error) {
	if err != nil {
		fatal(err)
	}
}

func mustEval(t *tree.Tree, s *sched.Schedule) {
	if _, _, err := sched.Evaluate(t, s); err != nil {
		fatal(err)
	}
}

// fillCoreMeans computes the per-bench geometric means (ns, and allocs
// offset by one so zero-alloc cells stay finite) — the gate keys; the
// geomean weighs every cell equally across sizes.
func fillCoreMeans(rep *CoreReport) {
	logs := make(map[string][2]float64)
	counts := make(map[string]int)
	for _, e := range rep.Entries {
		l := logs[e.Bench]
		l[0] += math.Log(math.Max(e.NsOp, 1))
		l[1] += math.Log(e.AllocsOp + 1)
		logs[e.Bench] = l
		counts[e.Bench]++
	}
	for b, l := range logs {
		c := float64(counts[b])
		rep.MeanNsByBench[b] = math.Exp(l[0] / c)
		rep.MeanAllocsByBench[b] = math.Exp(l[1]/c) - 1
	}
}

func printCoreReport(rep *CoreReport) {
	fmt.Printf("core bench: %s scale, p=%d, %d cells  |  %.0f schedules/sec aggregate\n",
		rep.Scale, rep.Processors, len(rep.Entries), rep.SchedulesPerSec)
	names := make([]string, 0, len(rep.MeanNsByBench))
	for b := range rep.MeanNsByBench {
		names = append(names, b)
	}
	sort.Strings(names)
	fmt.Printf("  %-18s %12s %12s\n", "bench", "geomean ns", "allocs/op")
	for _, b := range names {
		fmt.Printf("  %-18s %12.0f %12.2f\n", b, rep.MeanNsByBench[b], rep.MeanAllocsByBench[b])
	}
}

// allocsSlack is how far a bench's geomean allocs/op may read above its
// baseline: less than one allocation per call.
const allocsSlack = 0.5

// ownsAll and ownsObs say which baseline rows a run must reproduce: the
// core suite measures every row, the obs suite only the Obs/* rows.
func ownsAll(string) bool { return true }

func ownsObs(bench string) bool { return strings.HasPrefix(bench, "Obs/") }

// coreGate reads the baseline report at path and gates rep against it
// (see compareCore).
func coreGate(rep *CoreReport, path string, owns func(bench string) bool, maxratio float64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base CoreReport
	if err := json.Unmarshal(b, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if err := compareCore(&base, rep, owns, maxratio); err != nil {
		return fmt.Errorf("vs baseline %s: %w", path, err)
	}
	return nil
}

// compareCore compares per-bench geomean ns/op and allocs/op plus the
// aggregate scheduling throughput of rep against base. Timings may read
// up to maxratio × their baseline; allocations, which the exact pass
// counts (see allocsPerRun), at most allocsSlack above theirs, so one
// extra allocation per call fails a row. Every baseline bench the run's
// suite owns must be present in rep: a renamed or deleted bench fails the
// gate instead of dropping out of the ratchet. The limits are written as
// !(x <= limit) and !(x >= limit) so a NaN measurement fails too.
func compareCore(base, rep *CoreReport, owns func(bench string) bool, maxratio float64) error {
	if base.Scale != rep.Scale || base.Seed != rep.Seed || base.Processors != rep.Processors {
		return fmt.Errorf("baseline is %s scale seed %d p%d; this run is %s scale seed %d p%d",
			base.Scale, base.Seed, base.Processors, rep.Scale, rep.Seed, rep.Processors)
	}
	if base.Machine != "" && base.Machine != rep.Machine {
		return fmt.Errorf("baseline benchmarks machine %q; this run used %q", base.Machine, rep.Machine)
	}
	// fillCoreMeans fills both mean maps for every bench, so the ns keys
	// name every baseline row.
	benches := make([]string, 0, len(base.MeanNsByBench))
	for bench := range base.MeanNsByBench {
		if owns(bench) {
			benches = append(benches, bench)
		}
	}
	sort.Strings(benches)
	for _, bench := range benches {
		ns, okNs := rep.MeanNsByBench[bench]
		a, okAllocs := rep.MeanAllocsByBench[bench]
		if !okNs || !okAllocs {
			return fmt.Errorf("baseline bench %s is missing from this run", bench)
		}
		if baseNs := base.MeanNsByBench[bench]; baseNs > 0 && !(ns <= maxratio*baseNs) {
			return fmt.Errorf("%s geomean %.0f ns/op exceeds %g× baseline %.0f", bench, ns, maxratio, baseNs)
		}
		if baseAllocs := base.MeanAllocsByBench[bench]; !(a <= baseAllocs+allocsSlack) {
			return fmt.Errorf("%s allocs/op %.2f exceeds baseline %.2f + %g", bench, a, baseAllocs, allocsSlack)
		}
	}
	// SchedulesPerSec is only comparable when this run measured the
	// scheduler rows (the obs suite does not, and reports 0).
	if base.SchedulesPerSec > 0 && rep.SchedulesPerSec != 0 && !(rep.SchedulesPerSec >= base.SchedulesPerSec/maxratio) {
		return fmt.Errorf("aggregate %.0f schedules/sec below baseline %.0f / %g",
			rep.SchedulesPerSec, base.SchedulesPerSec, maxratio)
	}
	return nil
}
