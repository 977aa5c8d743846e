package sched

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"treesched/internal/machine"
	"treesched/internal/tree"
)

// HeuristicID enumerates every scheduler this package can run. It is the
// typed alternative to string names: callers such as the HTTP service
// parse wire names once with ParseHeuristic and then work with IDs.
type HeuristicID int

const (
	// The paper's four heuristics, in Table 1 order.
	IDParSubtrees HeuristicID = iota
	IDParSubtreesOptim
	IDParInnerFirst
	IDParDeepestFirst
	// IDParInnerFirstArbitrary is the leaf-order ablation of ParInnerFirst.
	IDParInnerFirstArbitrary
	// IDSequential is the memory lower-bound baseline: the memory-optimal
	// postorder executed on a single processor.
	IDSequential
	// IDOptimalSequential is Liu's exact optimal sequential traversal
	// (may beat every postorder), executed on a single processor.
	IDOptimalSequential
	// IDMemCapped and IDMemCappedBooking schedule under a hard memory cap
	// (Options.MemCapFactor × M_seq).
	IDMemCapped
	IDMemCappedBooking
	// IDExact is the exact-solver pseudo-heuristic: a valid wire name
	// ("Exact") but not runnable by this package — the branch-and-bound
	// lives in internal/exact (which builds on this package) and is
	// surfaced as a portfolio candidate by internal/portfolio. Like
	// IDAuto, Options.Validate rejects it in a plain selection.
	IDExact
	// IDAuto is the portfolio pseudo-heuristic: it is a valid wire name
	// ("Auto") but not runnable by this package. The portfolio layer
	// (internal/portfolio, the service's /v1/portfolio path) expands it
	// into racing a candidate set and selecting a winner by objective, so
	// Options.Validate rejects it in a plain selection.
	IDAuto

	numHeuristicIDs // sentinel; keep last
)

var heuristicNames = [numHeuristicIDs]string{
	IDParSubtrees:            "ParSubtrees",
	IDParSubtreesOptim:       "ParSubtreesOptim",
	IDParInnerFirst:          "ParInnerFirst",
	IDParDeepestFirst:        "ParDeepestFirst",
	IDParInnerFirstArbitrary: "ParInnerFirstArbitrary",
	IDSequential:             "Sequential",
	IDOptimalSequential:      "OptimalSequential",
	IDMemCapped:              "MemCapped",
	IDMemCappedBooking:       "MemCappedBooking",
	IDExact:                  "Exact",
	IDAuto:                   "Auto",
}

// heuristicIDs inverts heuristicNames once at init, making ParseHeuristic
// (and every wire decode through UnmarshalText) a map lookup instead of a
// linear scan.
var heuristicIDs = func() map[string]HeuristicID {
	m := make(map[string]HeuristicID, len(heuristicNames))
	for id, n := range heuristicNames {
		m[n] = HeuristicID(id)
	}
	return m
}()

// String returns the canonical wire name of the heuristic.
func (id HeuristicID) String() string {
	if id < 0 || id >= numHeuristicIDs {
		return fmt.Sprintf("HeuristicID(%d)", int(id))
	}
	return heuristicNames[id]
}

// Valid reports whether id names an actual heuristic.
func (id HeuristicID) Valid() bool { return id >= 0 && id < numHeuristicIDs }

// ParseHeuristic resolves a canonical wire name to its ID. Unknown names
// yield an error enumerating every valid name, so trace and request
// authors see the whole menu instead of guessing.
func ParseHeuristic(name string) (HeuristicID, error) {
	id, ok := heuristicIDs[name]
	if !ok {
		return -1, fmt.Errorf("sched: unknown heuristic %q (known: %s)",
			name, strings.Join(HeuristicNames(), ", "))
	}
	return id, nil
}

// MarshalText encodes the ID as its canonical wire name, so wire structs
// can carry []HeuristicID fields that serialize as JSON string arrays.
func (id HeuristicID) MarshalText() ([]byte, error) {
	if !id.Valid() {
		return nil, fmt.Errorf("sched: cannot marshal invalid heuristic id %d", int(id))
	}
	return []byte(heuristicNames[id]), nil
}

// UnmarshalText decodes a canonical wire name.
func (id *HeuristicID) UnmarshalText(text []byte) error {
	got, err := ParseHeuristic(string(text))
	if err != nil {
		return err
	}
	*id = got
	return nil
}

// HeuristicNames returns every canonical wire name in sorted order, for
// error texts and documentation.
func HeuristicNames() []string {
	names := make([]string, 0, len(heuristicNames))
	for _, n := range heuristicNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PaperHeuristics returns the IDs of the paper's four heuristics in
// Table 1 order, the default selection everywhere.
func PaperHeuristics() []HeuristicID {
	return []HeuristicID{IDParSubtrees, IDParSubtreesOptim, IDParInnerFirst, IDParDeepestFirst}
}

// Options selects the schedulers to run on a tree and their shared
// parameters. The zero value is not runnable: Processors must be >= 1 (or
// Machine set).
type Options struct {
	// Processors is the machine size p. Required (>= 1) unless Machine is
	// set, in which case it must be 0 or equal to Machine.P().
	Processors int
	// Machine is the explicit machine model: per-processor speeds for
	// heterogeneous (related-machines) scheduling. nil means the paper's
	// uniform machine of Processors unit-speed processors.
	Machine *machine.Model
	// Heuristics lists the schedulers to run, in output order.
	// Empty means the paper's four heuristics.
	Heuristics []HeuristicID
	// MemCapFactor sets the memory cap of IDMemCapped and
	// IDMemCappedBooking to MemCapFactor × MemoryLowerBound(t). It must be
	// >= 1 when a capped heuristic is selected and is ignored otherwise.
	MemCapFactor float64
}

// Model resolves the effective machine: Machine when set, else the
// uniform machine of size Processors. Only valid after Validate.
func (o Options) Model() *machine.Model {
	if o.Machine != nil {
		return o.Machine
	}
	return machine.Uniform(o.Processors)
}

// Validate checks o without reference to a particular tree.
func (o Options) Validate() error {
	if o.Machine != nil {
		if o.Processors != 0 && o.Processors != o.Machine.P() {
			return fmt.Errorf("sched: options: processors %d conflicts with machine %q (%d processors)",
				o.Processors, o.Machine.Spec(), o.Machine.P())
		}
	} else if o.Processors < 1 {
		return fmt.Errorf("sched: options: processors must be >= 1, got %d", o.Processors)
	}
	for _, id := range o.Heuristics {
		if !id.Valid() {
			return fmt.Errorf("sched: options: invalid heuristic id %d", int(id))
		}
		if id == IDAuto {
			return fmt.Errorf("sched: options: Auto is a pseudo-heuristic; it must be resolved by the portfolio layer before selection")
		}
		if id == IDExact {
			return fmt.Errorf("sched: options: Exact is a pseudo-heuristic; it runs through the portfolio layer or the exact solver, not a plain selection")
		}
		// !(>= 1) rather than (< 1) so NaN is rejected too.
		if (id == IDMemCapped || id == IDMemCappedBooking) && !(o.MemCapFactor >= 1) {
			return fmt.Errorf("sched: options: %s requires mem_cap_factor >= 1, got %g", id, o.MemCapFactor)
		}
	}
	return nil
}

// Select resolves o into runnable heuristics. Each heuristic builds its
// per-tree Precompute on every Run call; callers scheduling one tree more
// than once (or several heuristics on the same tree) should use SelectFor
// or SelectPre so the precompute is shared.
func (o Options) Select() ([]Heuristic, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ids := o.heuristicIDs()
	hs := make([]Heuristic, 0, len(ids))
	for _, id := range ids {
		hs = append(hs, o.heuristic(id, nil))
	}
	return hs, nil
}

// SelectFor is Select specialized to a single tree: one Precompute — the
// memory-optimal postorder σ, M_seq, depths, priority rankings — is built
// here and shared by every returned heuristic, across repeated Run calls
// and processor counts. M_seq is returned alongside. The returned
// heuristics must only be run on t.
func (o Options) SelectFor(t *tree.Tree) ([]Heuristic, int64, error) {
	return o.SelectPre(NewPrecompute(t))
}

// SelectPre is SelectFor for callers that already hold the tree's
// Precompute (the portfolio racer, the forest planner), so the scheduling
// core computes Liu's traversal exactly once per tree no matter how many
// layers are stacked on top.
func (o Options) SelectPre(pc *Precompute) ([]Heuristic, int64, error) {
	if err := o.Validate(); err != nil {
		return nil, 0, err
	}
	ids := o.heuristicIDs()
	hs := make([]Heuristic, 0, len(ids))
	for _, id := range ids {
		hs = append(hs, o.heuristic(id, pc))
	}
	return hs, pc.MSeq(), nil
}

func (o Options) heuristicIDs() []HeuristicID {
	if len(o.Heuristics) == 0 {
		return PaperHeuristics()
	}
	return o.Heuristics
}

// heuristic binds id to pc (nil: a fresh Precompute per Run call). The
// contract of SelectFor/SelectPre is that the bound heuristics only run
// on pc's tree; passing any other tree is rejected rather than silently
// scheduling with the wrong precompute.
func (o Options) heuristic(id HeuristicID, pc *Precompute) Heuristic {
	factor := o.MemCapFactor
	runOn := func(t *tree.Tree, m *machine.Model) (*Schedule, error) {
		ctx := pc
		if ctx == nil {
			ctx = NewPrecompute(t)
		} else if t != ctx.t {
			return nil, fmt.Errorf("sched: heuristic %s was selected for a different tree (SelectFor binds its heuristics to one tree)", id)
		}
		return ctx.RunOn(id, m, factor)
	}
	return Heuristic{ID: id, Name: id.String(),
		Run: func(t *tree.Tree, p int) (*Schedule, error) {
			m, err := uniformChecked(p)
			if err != nil {
				return nil, err
			}
			return runOn(t, m)
		},
		RunOn: runOn,
	}
}

func errUnrunnable(id HeuristicID) error {
	if id == IDAuto {
		return fmt.Errorf("sched: Auto is a pseudo-heuristic; it must be resolved by the portfolio layer")
	}
	if id == IDExact {
		return fmt.Errorf("sched: Exact is a pseudo-heuristic; it is solved by internal/exact via the portfolio layer")
	}
	return fmt.Errorf("sched: heuristic id %d is not runnable", int(id))
}

// capFromFactor converts a cap expressed as a multiple of M_seq into an
// absolute cap, rounding up so the cap never undershoots the requested
// factor × M_seq through float truncation and factor 1.0 is always
// feasible sequentially. Products beyond int64 range saturate at
// MaxInt64 (an effectively unlimited cap) instead of overflowing.
func capFromFactor(factor float64, mseq int64) int64 {
	prod := math.Ceil(factor * float64(mseq))
	if prod >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	cap := int64(prod)
	if cap < mseq {
		cap = mseq
	}
	return cap
}

// SequentialSchedule lays order out back to back on a single processor.
// order must be a topological order of t (children before parents); a
// non-topological order yields an invalid schedule, which Validate
// detects. Validation is left to the caller so hot paths that always pass
// a correct order (the service, the CLI) don't pay for it twice.
func SequentialSchedule(t *tree.Tree, order []int) (*Schedule, error) {
	n := t.Len()
	if len(order) != n {
		return nil, fmt.Errorf("sched: sequential: order covers %d of %d nodes", len(order), n)
	}
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: 1}
	sequentialFill(t, s, order)
	return s, nil
}

// SequentialScheduleOn is the sequential baseline on an explicit machine
// model: on a uniform model it is SequentialSchedule (the historical
// one-processor schedule); on a heterogeneous model every task runs back
// to back on the machine's fastest processor, speed-scaled.
func SequentialScheduleOn(t *tree.Tree, m *machine.Model, order []int) (*Schedule, error) {
	if m.IsUniform() {
		return SequentialSchedule(t, order)
	}
	n := t.Len()
	if len(order) != n {
		return nil, fmt.Errorf("sched: sequential: order covers %d of %d nodes", len(order), n)
	}
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: m.P(), M: m}
	proc := m.Fastest()
	for i := range s.Proc {
		s.Proc[i] = proc
	}
	sequentialFill(t, s, order)
	return s, nil
}

// sequentialFill lays order out back to back on the processor already
// recorded in s.Proc, tracking the exact peak inline. One task at a time
// makes the running resident maximum exactly the simulator's peak —
// except around zero-duration tasks, whose same-instant replay order
// (topological, not σ) can differ, so their presence skips the cache like
// in every other scheduler.
func sequentialFill(t *tree.Tree, s *Schedule, order []int) {
	var now float64
	var mem, peak int64
	hasPulse := false
	for _, v := range order {
		s.Start[v] = now
		now += s.Dur(t, v)
		hasPulse = hasPulse || t.W(v) == 0
		mem += t.N(v) + t.F(v)
		if mem > peak {
			peak = mem
		}
		mem -= t.N(v) + t.InSize(v)
	}
	if !hasPulse {
		s.setPeak(peak)
	}
}
