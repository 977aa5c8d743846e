package sched

import (
	"fmt"
	"math"
	"slices"
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
	// IDParSubtrees is the memory-focused heuristic of paper §5.1 (Alg. 1):
	// the tree is split into subtrees by SplitSubtrees; the p heaviest
	// subtrees run concurrently, one per processor, each traversed with the
	// memory-optimal sequential postorder; every remaining node (merge
	// nodes and surplus subtrees) is then processed sequentially, again in
	// memory-minimizing order. It is a (p+1)-approximation for peak memory
	// and a p-approximation for makespan.
	IDParSubtrees HeuristicID = iota
	// IDParSubtreesOptim is the makespan optimization of ParSubtrees (paper
	// §5.1): all subtrees produced by the splitting — not only the p
	// heaviest — are allocated to the processors in LPT fashion (heaviest
	// first onto the least-loaded processor), and only the merge nodes run
	// sequentially. It typically improves the makespan at the price of
	// some extra memory.
	IDParSubtreesOptim
	// IDParInnerFirst is the parallel-postorder heuristic of paper §5.2,
	// built on the list scheduler (Alg. 3): ready inner nodes always
	// precede ready leaves; inner nodes are ordered by non-increasing
	// depth; leaves follow the memory-optimal sequential postorder. Being
	// a list scheduling, it is a (2-1/p)-approximation for the makespan;
	// its memory use is unbounded relative to M_seq (paper Fig. 4).
	IDParInnerFirst
	// IDParDeepestFirst is the makespan-focused heuristic of paper §5.3:
	// ready nodes are ordered by non-increasing w-weighted distance to the
	// root (including their own w — the deepest node starts the critical
	// path), with inner nodes before leaves and the optimal sequential
	// postorder breaking remaining ties. Its memory use is unbounded
	// relative to M_seq (paper Fig. 5). On a heterogeneous machine the
	// ranking stays the tree's (speeds scale execution, not the
	// critical-path structure); the machine decides which processor a
	// ready task lands on and how long it runs.
	IDParDeepestFirst
	// IDParInnerFirstArbitrary is ParInnerFirst with an arbitrary (natural
	// index) leaf order instead of the optimal sequential postorder: the
	// ablation baseline for the role of the input order O in Algorithm 3.
	IDParInnerFirstArbitrary
	// IDSequential is the memory lower-bound baseline: the memory-optimal
	// postorder executed on a single processor (the fastest one of a
	// heterogeneous machine).
	IDSequential
	// IDOptimalSequential is Liu's exact optimal sequential traversal
	// (may beat every postorder), executed like IDSequential.
	IDOptimalSequential
	// IDMemCapped schedules under a hard memory cap, the paper's future
	// work (§7): tasks start in the order of the memory-optimal postorder
	// σ, each as soon as its children are done and the cap allows.
	IDMemCapped
	// IDMemCappedBooking schedules under a hard memory cap with far more
	// parallelism: it admits any ready task, deepest first, whose
	// footprint fits in the memory not booked for σ's future needs.
	// Options sets both caps to CapFromFactor(MemCapFactor, M_seq).
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

// Capped reports whether id schedules under the memory cap of its
// selection, CapFromFactor(MemCapFactor, M_seq): MemCapped,
// MemCappedBooking and Exact do, every other heuristic ignores it. A
// rendered schedule shows a cap only when its heuristic ran under one.
func (id HeuristicID) Capped() bool {
	return id == IDMemCapped || id == IDMemCappedBooking || id == IDExact
}

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
	// IDMemCappedBooking to CapFromFactor(MemCapFactor, M_seq). It must be
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
		if id.Capped() && !(o.MemCapFactor >= 1) {
			return fmt.Errorf("sched: options: %s requires mem_cap_factor >= 1, got %g", id, o.MemCapFactor)
		}
	}
	return nil
}

// SelectPre resolves o into runnable heuristics bound to pc's tree, and
// returns M_seq alongside. Every returned heuristic shares pc, so the
// scheduling core computes Liu's traversal exactly once per tree no matter
// how many layers are stacked on top; MemCapFactor becomes one absolute
// cap, and both ParSubtrees variants share one splitting per p. The
// returned heuristics must only be run on pc's tree.
func (o Options) SelectPre(pc *Precompute) ([]Heuristic, int64, error) {
	if err := o.Validate(); err != nil {
		return nil, 0, err
	}
	ids := o.heuristicIDs()
	// Both ParSubtrees variants split the tree the same way (paper Alg. 2),
	// so a selection that holds either shares one splitting per p.
	var share *splitShare
	if slices.Contains(ids, IDParSubtrees) || slices.Contains(ids, IDParSubtreesOptim) {
		share = new(splitShare)
	}
	cap := CapFromFactor(o.MemCapFactor, pc.MSeq())
	hs := make([]Heuristic, 0, len(ids))
	for _, id := range ids {
		hs = append(hs, Heuristic{ID: id, Name: id.String(),
			RunOn: func(t *tree.Tree, m *machine.Model) (*Schedule, error) {
				if t != pc.t {
					return nil, fmt.Errorf("sched: heuristic %s was selected for a different tree (SelectPre binds its heuristics to one tree)", id)
				}
				return pc.run(id, m, cap, share)
			},
		})
	}
	return hs, pc.MSeq(), nil
}

func (o Options) heuristicIDs() []HeuristicID {
	if len(o.Heuristics) == 0 {
		return PaperHeuristics()
	}
	return o.Heuristics
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

// CapFromFactor converts a memory cap expressed as a multiple of M_seq
// into the absolute cap every layer uses: ⌈factor × M_seq⌉, computed in
// float64 (so 1.1 × 100 gives 111, one above the exact product: a cap
// never undershoots the requested factor through float rounding). A
// factor of at least 1 never yields less than M_seq, so the sequential
// traversal always fits. An unset factor (≤ 0, or NaN) and products
// beyond int64 range mean no cap: math.MaxInt64.
func CapFromFactor(factor float64, mseq int64) int64 {
	if !(factor > 0) {
		return math.MaxInt64
	}
	prod := math.Ceil(factor * float64(mseq))
	if prod >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	cap := int64(prod)
	if factor >= 1 && cap < mseq {
		cap = mseq
	}
	return cap
}

// SequentialSchedule lays order out back to back on one processor of m:
// processor 0 of a uniform machine (a one-processor schedule, as the
// paper's baselines have it), the fastest processor of a heterogeneous
// one, speed-scaled. order must be a topological order of t (children
// before parents); a non-topological order yields an invalid schedule,
// which Validate detects. Validation is left to the caller so hot paths
// that always pass a correct order don't pay for it twice.
func SequentialSchedule(t *tree.Tree, m *machine.Model, order []int) (*Schedule, error) {
	n := t.Len()
	if len(order) != n {
		return nil, fmt.Errorf("sched: sequential: order covers %d of %d nodes", len(order), n)
	}
	s := &Schedule{Start: make([]float64, n), Proc: make([]int, n), P: 1}
	if !m.IsUniform() {
		s.P, s.M = m.P(), m
		proc := m.Fastest()
		for i := range s.Proc {
			s.Proc[i] = proc
		}
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
