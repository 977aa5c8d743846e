package sched

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"treesched/internal/machine"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

func optionsTestTree(tb testing.TB) *tree.Tree {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	return tree.RandomAttachment(rng, 70, tree.WeightSpec{WMin: 1, WMax: 5, NMin: 0, NMax: 2, FMin: 1, FMax: 8})
}

func TestParseHeuristicRoundTrip(t *testing.T) {
	for id := HeuristicID(0); id.Valid(); id++ {
		got, err := ParseHeuristic(id.String())
		if err != nil || got != id {
			t.Errorf("ParseHeuristic(%q) = %v, %v", id.String(), got, err)
		}
	}
	_, err := ParseHeuristic("NoSuchHeuristic")
	if err == nil {
		t.Fatal("parsed an unknown name")
	}
	// The error must enumerate every valid name, so trace authors see the
	// whole menu.
	for _, n := range HeuristicNames() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("ParseHeuristic error %q does not enumerate %q", err, n)
		}
	}
	if HeuristicID(-1).Valid() || HeuristicID(int(numHeuristicIDs)).Valid() {
		t.Error("out-of-range IDs report valid")
	}
}

func TestHeuristicIDTextRoundTrip(t *testing.T) {
	for id := HeuristicID(0); id.Valid(); id++ {
		text, err := id.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText(%v): %v", id, err)
		}
		if string(text) != id.String() {
			t.Errorf("MarshalText(%v) = %q, want %q", id, text, id.String())
		}
		var back HeuristicID
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != id {
			t.Errorf("round trip %v -> %q -> %v", id, text, back)
		}
	}
	if _, err := HeuristicID(-1).MarshalText(); err == nil {
		t.Error("marshaled an invalid id")
	}
	var id HeuristicID
	if err := id.UnmarshalText([]byte("NoSuchHeuristic")); err == nil {
		t.Error("unmarshaled an unknown name")
	}
}

func TestHeuristicNamesSortedAndComplete(t *testing.T) {
	names := HeuristicNames()
	if len(names) != int(numHeuristicIDs) {
		t.Fatalf("got %d names, want %d", len(names), int(numHeuristicIDs))
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("names not sorted: %v", names)
	}
	for _, n := range names {
		if _, err := ParseHeuristic(n); err != nil {
			t.Errorf("listed name %q does not parse: %v", n, err)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Processors: 0}).Validate(); err == nil {
		t.Error("p=0 accepted")
	}
	if err := (Options{Processors: 2, Heuristics: []HeuristicID{HeuristicID(99)}}).Validate(); err == nil {
		t.Error("invalid id accepted")
	}
	if err := (Options{Processors: 2, Heuristics: []HeuristicID{IDMemCapped}}).Validate(); err == nil {
		t.Error("capped heuristic without factor accepted")
	}
	if err := (Options{Processors: 2, Heuristics: []HeuristicID{IDMemCapped}, MemCapFactor: math.NaN()}).Validate(); err == nil {
		t.Error("NaN cap factor accepted")
	}
	if err := (Options{Processors: 2, Heuristics: []HeuristicID{IDMemCapped}, MemCapFactor: 1.5}).Validate(); err != nil {
		t.Errorf("valid capped options rejected: %v", err)
	}
	if err := (Options{Processors: 2, Heuristics: []HeuristicID{IDAuto}}).Validate(); err == nil {
		t.Error("Auto pseudo-heuristic accepted in a plain selection")
	}
	if err := (Options{Processors: 2, Heuristics: []HeuristicID{IDExact}}).Validate(); err == nil {
		t.Error("Exact pseudo-heuristic accepted in a plain selection")
	}
}

func TestOptionsSelectDefaultsToPaperFour(t *testing.T) {
	tr := optionsTestTree(t)
	hs, _, err := (Options{Processors: 4}).SelectPre(NewPrecompute(tr))
	if err != nil {
		t.Fatal(err)
	}
	want := Heuristics()
	if len(hs) != len(want) {
		t.Fatalf("got %d heuristics, want %d", len(hs), len(want))
	}
	for i, h := range hs {
		if h.Name != want[i].Name {
			t.Errorf("heuristic %d: %q, want %q", i, h.Name, want[i].Name)
		}
		s, err := h.Run(tr, 4)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		ref, err := want[i].Run(tr, 4)
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan(tr) != ref.Makespan(tr) || PeakMemory(tr, s) != PeakMemory(tr, ref) {
			t.Errorf("%s via Options differs from direct call", h.Name)
		}
	}
}

func TestOptionsSequentialBaselines(t *testing.T) {
	tr := optionsTestTree(t)
	opts := Options{
		Processors: 4, // ignored by the sequential baselines
		Heuristics: []HeuristicID{IDSequential, IDOptimalSequential},
	}
	hs, _, err := opts.SelectPre(NewPrecompute(tr))
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		s, err := h.Run(tr, opts.Processors)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		if err := s.Validate(tr); err != nil {
			t.Fatalf("%s: invalid schedule: %v", h.Name, err)
		}
		if s.P != 1 {
			t.Errorf("%s ran on %d processors", h.Name, s.P)
		}
		if got, want := s.Makespan(tr), tr.TotalW(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s makespan %g, want total work %g", h.Name, got, want)
		}
		peak := PeakMemory(tr, s)
		ref := traversal.BestPostOrder(tr).Peak
		if i == 0 && peak != ref {
			t.Errorf("Sequential peak %d, want best postorder peak %d", peak, ref)
		}
		if i == 1 && peak != traversal.Optimal(tr).Peak {
			t.Errorf("OptimalSequential peak %d, want Liu optimal %d", peak, traversal.Optimal(tr).Peak)
		}
	}
}

func TestOptionsMemCapped(t *testing.T) {
	tr := optionsTestTree(t)
	opts := Options{
		Processors:   4,
		Heuristics:   []HeuristicID{IDMemCapped, IDMemCappedBooking},
		MemCapFactor: 1.5,
	}
	hs, _, err := opts.SelectPre(NewPrecompute(tr))
	if err != nil {
		t.Fatal(err)
	}
	cap := int64(math.Ceil(1.5 * float64(MemoryLowerBound(tr))))
	for _, h := range hs {
		s, err := h.Run(tr, 4)
		if err != nil {
			t.Fatalf("%s: %v", h.Name, err)
		}
		if peak := PeakMemory(tr, s); peak > cap {
			t.Errorf("%s peak %d exceeds cap %d", h.Name, peak, cap)
		}
	}
}

// TestCapFromFactor pins the one cap rule of every layer (the selection,
// the exact solver, the forest, the service's timeline and the CLIs):
// ⌈factor × M_seq⌉ in float64, saturating, with an unset factor meaning
// no cap.
func TestCapFromFactor(t *testing.T) {
	cases := []struct {
		factor float64
		mseq   int64
		want   int64
	}{
		{0, 100, math.MaxInt64},
		{-1, 100, math.MaxInt64},
		{math.NaN(), 100, math.MaxInt64},
		{2, 100, 200},
		{1.5, 101, 152},
		{1.5, 51, 77},   // truncation would give 76
		{1.1, 100, 111}, // float64(1.1)·100 rounds above 110, and the ceiling keeps it
		{0.5, 101, 51},  // factors below 1 are the exact solver's: no floor at M_seq
		{1, 1<<53 + 1, 1<<53 + 1},
		{math.Inf(1), 100, math.MaxInt64},
		{1e18, math.MaxInt64, math.MaxInt64}, // saturates instead of overflowing
	}
	for _, tc := range cases {
		if got := CapFromFactor(tc.factor, tc.mseq); got != tc.want {
			t.Errorf("CapFromFactor(%g, %d) = %d, want %d", tc.factor, tc.mseq, got, tc.want)
		}
	}
}

func TestSequentialScheduleRejectsPartialOrder(t *testing.T) {
	tr := optionsTestTree(t)
	m := machine.Uniform(1)
	if _, err := SequentialSchedule(tr, m, tr.TopOrder()[:tr.Len()-1]); err == nil {
		t.Error("partial order accepted")
	}
	if _, err := SequentialSchedule(tr, m, tr.TopOrder()); err != nil {
		t.Errorf("valid order rejected: %v", err)
	}
}

func TestByNameStillResolvesEverything(t *testing.T) {
	for _, name := range []string{
		"ParSubtrees", "ParSubtreesOptim", "ParInnerFirst", "ParDeepestFirst",
		"ParInnerFirstArbitrary", "Sequential", "OptimalSequential",
	} {
		h, ok := ByName(name)
		if !ok || h.Name != name || h.RunOn == nil {
			t.Errorf("ByName(%q) broken", name)
		}
	}
	for _, name := range []string{"MemCapped", "MemCappedBooking", "Auto", "Exact", "nope"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) should not resolve", name)
		}
	}
}
