package sched_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"treesched/internal/dataset"
	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// TestGoldenUniformMachineMatches proves the machine-model refactor safe:
// every heuristic run through Precompute.Run on machine.Uniform(p) must
// reproduce the pre-refactor golden hashes byte-for-byte — same
// start-time bits, same processor assignments, same peak — for every
// heuristic × quick-tree family.
func TestGoldenUniformMachineMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "golden_quick.json"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	insts, err := dataset.Collection(dataset.Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, inst := range insts {
		for _, cfg := range goldenConfigs() {
			// Route through Precompute.Run on the explicit uniform model
			// (the other golden test goes through Options and Heuristic.Run).
			pc := sched.NewPrecompute(inst.Tree)
			m := machine.Uniform(cfg.opts.Processors)
			s, err := pc.Run(cfg.opts.Heuristics[0], m, sched.CapFromFactor(cfg.opts.MemCapFactor, pc.MSeq()))
			if err != nil {
				t.Fatalf("%s %s: %v", inst.Name, cfg.name, err)
			}
			key := inst.Name + "/" + cfg.name
			if got := scheduleHash(inst.Tree, s); got != want[key] {
				t.Errorf("%s: uniform machine model changed the schedule (golden %s, got %s)", key, want[key], got)
			}
			checked++
		}
	}
	if checked != len(want) {
		t.Errorf("checked %d configurations, golden file has %d", checked, len(want))
	}
}

// hetHeuristics is every heuristic runnable on an explicit machine model.
var hetHeuristics = []sched.HeuristicID{
	sched.IDParSubtrees, sched.IDParSubtreesOptim, sched.IDParInnerFirst,
	sched.IDParDeepestFirst, sched.IDParInnerFirstArbitrary,
	sched.IDSequential, sched.IDOptimalSequential,
	sched.IDMemCapped, sched.IDMemCappedBooking,
}

// TestHeterogeneousInvariants runs every heuristic on a 2-speed machine
// (speeds {1, 0.5}) over random trees and checks the related-machines
// execution model end to end: schedules validate, no task starts before
// its children finish under speed-scaled durations, every task sits on a
// valid processor, and the scheduler's inline-tracked peak agrees with
// both Evaluate and the event-replay simulator.
func TestHeterogeneousInvariants(t *testing.T) {
	m, err := machine.ParseSpec("2x1.0+2x0.5")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
	for trial := 0; trial < 25; trial++ {
		tr := tree.RandomAttachment(rng, 40+rng.Intn(160), ws)
		pc := sched.NewPrecompute(tr)
		for _, id := range hetHeuristics {
			s, err := pc.Run(id, m, sched.CapFromFactor(2, pc.MSeq()))
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, id, err)
			}
			if s.P != m.P() {
				t.Fatalf("trial %d %s: schedule has P=%d, machine has %d", trial, id, s.P, m.P())
			}
			if err := s.Validate(tr); err != nil {
				t.Fatalf("trial %d %s: invalid heterogeneous schedule: %v", trial, id, err)
			}
			for v := 0; v < tr.Len(); v++ {
				pa := tr.Parent(v)
				if pa == tree.None {
					continue
				}
				if s.Start[pa]+1e-9 < s.Start[v]+s.Dur(tr, v) {
					t.Fatalf("trial %d %s: parent %d starts at %v before child %d finishes at %v",
						trial, id, pa, s.Start[pa], v, s.Start[v]+s.Dur(tr, v))
				}
			}
			mk, peak, err := sched.Evaluate(tr, s)
			if err != nil {
				t.Fatalf("trial %d %s: Evaluate: %v", trial, id, err)
			}
			if want := s.Makespan(tr); math.Abs(mk-want) > 1e-9 {
				t.Fatalf("trial %d %s: Evaluate makespan %v != Makespan %v", trial, id, mk, want)
			}
			// The first Evaluate served the inline-tracked peak; the replay
			// after Invalidate is the authoritative simulation.
			s.Invalidate()
			if replay := sched.PeakMemory(tr, s); replay != peak {
				t.Fatalf("trial %d %s: inline peak %d != replayed peak %d", trial, id, peak, replay)
			}
		}
	}
}

// TestHeterogeneousUsesSpeeds pins the basic related-machines semantics:
// on a single chain, a 2-speed machine finishes the work at the fast
// processor's rate, and the speed-scaled lower bound reflects it.
func TestHeterogeneousUsesSpeeds(t *testing.T) {
	// Chain of 4 unit-work tasks.
	tr := tree.MustNew(
		[]int{tree.None, 0, 1, 2},
		[]float64{1, 1, 1, 1},
		[]int64{0, 0, 0, 0},
		[]int64{1, 1, 1, 1},
	)
	m, err := machine.ParseSpec("1x0.5+1x2")
	if err != nil {
		t.Fatal(err)
	}
	pc := sched.NewPrecompute(tr)
	s, err := pc.Run(sched.IDParDeepestFirst, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Every task must land on processor 1 (speed 2): a chain has exactly
	// one ready task at a time and the fastest processor is always free.
	for v := 0; v < tr.Len(); v++ {
		if s.Proc[v] != 1 {
			t.Errorf("task %d on processor %d, want 1 (fastest)", v, s.Proc[v])
		}
	}
	if ms := s.Makespan(tr); ms != 2 {
		t.Errorf("makespan %v, want 2 (4 unit tasks at speed 2)", ms)
	}
	if lb := sched.MakespanLowerBoundOn(tr, m); lb != 2 {
		t.Errorf("speed-scaled lower bound %v, want 2 (critical path 4 / s_max 2)", lb)
	}
	if lbU := sched.MakespanLowerBoundOn(tr, machine.Uniform(3)); lbU != sched.MakespanLowerBound(tr, 3) {
		t.Errorf("uniform MakespanLowerBoundOn %v != MakespanLowerBound %v", lbU, sched.MakespanLowerBound(tr, 3))
	}
}

// TestOptionsMachineValidation pins the Options.Machine contract.
func TestOptionsMachineValidation(t *testing.T) {
	m, _ := machine.ParseSpec("2x1.0+2x0.5")
	ok := sched.Options{Machine: m}
	if err := ok.Validate(); err != nil {
		t.Errorf("Machine-only options rejected: %v", err)
	}
	if ok.Model() != m {
		t.Error("Model() did not return the explicit machine")
	}
	agree := sched.Options{Machine: m, Processors: 4}
	if err := agree.Validate(); err != nil {
		t.Errorf("consistent processors+machine rejected: %v", err)
	}
	conflict := sched.Options{Machine: m, Processors: 3}
	if err := conflict.Validate(); err == nil {
		t.Error("conflicting processors+machine accepted")
	}
	if got := (sched.Options{Processors: 5}).Model(); !got.IsUniform() || got.P() != 5 {
		t.Errorf("default Model() = %v, want Uniform(5)", got)
	}
}
