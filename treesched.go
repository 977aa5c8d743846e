package treesched

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"treesched/internal/dataset"
	"treesched/internal/exact"
	"treesched/internal/forest"
	"treesched/internal/frontal"
	"treesched/internal/machine"
	"treesched/internal/pebble"
	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/service"
	"treesched/internal/spm"
	"treesched/internal/traversal"
	"treesched/internal/tree"
)

// Core model types, re-exported from the implementation packages.
type (
	// Tree is an in-tree task graph with processing times w, execution-file
	// sizes n and output-file sizes f per node.
	Tree = tree.Tree
	// Builder assembles a Tree incrementally.
	Builder = tree.Builder
	// WeightSpec controls random node weights in the tree generators.
	WeightSpec = tree.WeightSpec
	// Traversal is a sequential order together with its peak memory.
	Traversal = traversal.Result
	// Schedule maps every node to a start time and a processor.
	Schedule = sched.Schedule
	// Heuristic is a named parallel scheduling algorithm.
	Heuristic = sched.Heuristic
	// Splitting is the subtree decomposition computed by SplitSubtrees.
	Splitting = sched.Splitting
	// Pattern is a symmetric sparse-matrix sparsity pattern.
	Pattern = spm.Pattern
	// Perm is a fill-reducing elimination ordering.
	Perm = spm.Perm
	// Instance is one assembly tree of the synthetic evaluation collection.
	Instance = dataset.Instance
	// DenseMatrix is the dense symmetric matrix type of the numeric engine.
	DenseMatrix = frontal.Dense
	// Factorizer performs numeric multifrontal Cholesky factorizations
	// under arbitrary tree traversals.
	Factorizer = frontal.Factorizer
	// FactorResult is the outcome of a numeric factorization: the factor
	// and the measured peak live entries.
	FactorResult = frontal.Result
	// HeuristicID is the typed identifier of a scheduling heuristic.
	HeuristicID = sched.HeuristicID
	// MachineModel describes the machine to schedule on: p related
	// processors with per-processor speeds (task i runs in w_i/s_k time on
	// processor k). Build one with UniformMachine or ParseMachineSpec and
	// pass it via ScheduleOptions.Machine, PortfolioOptions, or
	// ForestConfig.Machine; the paper's identical-processor model is the
	// uniform case.
	MachineModel = machine.Model
	// ScheduleOptions selects heuristics and parameters for a scheduling
	// run (used by the service and batch callers).
	ScheduleOptions = sched.Options
	// Server is the treeschedd scheduling-as-a-service HTTP server.
	Server = service.Server
	// ServerConfig parameterizes a Server (worker pool, cache, limits).
	ServerConfig = service.Config
	// ScheduleRequest is one job submitted to the scheduling service.
	ScheduleRequest = service.Request
	// ScheduleResponse is the service's answer to one ScheduleRequest.
	ScheduleResponse = service.Response
	// HeuristicResult is one heuristic's outcome within a ScheduleResponse.
	HeuristicResult = service.HeuristicResult
	// ScheduleBounds carries the bi-objective lower bounds of an instance.
	ScheduleBounds = service.Bounds
	// Objective is a typed selection policy for portfolio runs; build one
	// with MinMakespan, MinMemory, MakespanUnderMemCap, MemoryUnderDeadline,
	// Weighted or ParseObjective.
	Objective = portfolio.Objective
	// PortfolioOptions parameterizes RunPortfolio (machine size, candidate
	// heuristics, memory-cap factor, racing parallelism).
	PortfolioOptions = portfolio.Options
	// PortfolioCandidate is one heuristic's outcome in a portfolio race.
	PortfolioCandidate = portfolio.Candidate
	// PortfolioResult is the outcome of a portfolio race: all candidates,
	// the Pareto frontier and the objective-selected winner.
	PortfolioResult = portfolio.Result
	// ForestJob is one line of a forest trace: a tree arriving at a point
	// in time with an optional per-job planning directive.
	ForestJob = forest.Job
	// ForestConfig parameterizes a forest run (machine size, global
	// memory cap, admission policy, default planning heuristic).
	ForestConfig = forest.Config
	// ForestPolicy orders the forest admission queue; build one with
	// FIFO, SJFByWork, SmallestMemFirst, WeightedFair or ParsePolicy.
	ForestPolicy = forest.Policy
	// ForestResult is the outcome of a forest run: per-job results in
	// trace order plus the aggregate summary.
	ForestResult = forest.Result
	// ForestJobResult is one job's outcome within a ForestResult.
	ForestJobResult = forest.JobResult
	// ForestSummary aggregates one forest run (makespan, utilization,
	// peak resident memory, latency/stretch statistics).
	ForestSummary = forest.Summary
	// ForestGenConfig parameterizes the deterministic forest trace
	// generator.
	ForestGenConfig = forest.GenConfig
)

// None marks the absence of a node (the parent of a root).
const None = tree.None

// PebbleWeights is the unit-cost pebble-game model of the paper's
// complexity section (f=1, n=0, w=1).
var PebbleWeights = tree.PebbleWeights

// ErrTreeTooLarge is wrapped by DecodeTreeMax when the declared node
// count exceeds the given limit.
var ErrTreeTooLarge = tree.ErrTooLarge

// NewTree builds a tree from a parent vector (None for the root) and the
// per-node weights.
func NewTree(parent []int, w []float64, n, f []int64) (*Tree, error) {
	return tree.New(parent, w, n, f)
}

// DecodeTree parses the textual tree format (see Tree.Encode). The input
// is trusted: the declared node count is allocated as-is. For untrusted
// inputs use DecodeTreeMax.
func DecodeTree(r io.Reader) (*Tree, error) { return tree.Decode(r) }

// DecodeTreeMax is DecodeTree with a cap on the declared node count,
// checked before any count-sized allocation; exceeding it returns an
// error wrapping ErrTreeTooLarge. Use it on untrusted inputs, where a
// tiny hostile header line could otherwise demand arbitrary memory.
func DecodeTreeMax(r io.Reader, maxNodes int) (*Tree, error) { return tree.DecodeMax(r, maxNodes) }

// TreeHash returns the canonical SHA-256 hash of t (hex), the cache key
// of the scheduling service. Trees with identical parent/w/n/f vectors
// hash equally regardless of how they were constructed or encoded.
func TreeHash(t *Tree) string { return t.CanonicalHash() }

// RandomTree generates a random tree by uniform attachment.
func RandomTree(rng *rand.Rand, n int, ws WeightSpec) *Tree {
	return tree.RandomAttachment(rng, n, ws)
}

// Sequential traversals (single processor).

// BestPostOrder returns the memory-optimal postorder traversal (Liu 1986),
// the sequential memory reference M_seq of the paper's evaluation.
func BestPostOrder(t *Tree) Traversal { return traversal.BestPostOrder(t) }

// OptimalTraversal returns a peak-memory-optimal sequential traversal
// (Liu 1987), which may beat every postorder.
func OptimalTraversal(t *Tree) Traversal { return traversal.Optimal(t) }

// SequentialPeakMemory evaluates the peak memory of executing order
// sequentially; order must be a topological order of t.
func SequentialPeakMemory(t *Tree, order []int) (int64, error) {
	return traversal.PeakMemory(t, order)
}

// Parallel heuristics (paper §5).

// ParSubtrees runs the memory-focused two-phase heuristic (paper Alg. 1):
// a (p+1)-approximation for memory, a p-approximation for makespan.
func ParSubtrees(t *Tree, p int) (*Schedule, error) { return runUniform(t, p, sched.IDParSubtrees, 0) }

// ParSubtreesOptim is ParSubtrees with LPT allocation of all split
// subtrees, trading a little memory for makespan.
func ParSubtreesOptim(t *Tree, p int) (*Schedule, error) {
	return runUniform(t, p, sched.IDParSubtreesOptim, 0)
}

// ParInnerFirst approximates a postorder in parallel: ready inner nodes
// first, then leaves in optimal-postorder order. (2-1/p)-approximation for
// makespan; unbounded memory ratio in the worst case.
func ParInnerFirst(t *Tree, p int) (*Schedule, error) {
	return runUniform(t, p, sched.IDParInnerFirst, 0)
}

// ParDeepestFirst processes deepest nodes (by w-weighted root distance)
// first, targeting the critical path. (2-1/p)-approximation for makespan;
// unbounded memory ratio in the worst case.
func ParDeepestFirst(t *Tree, p int) (*Schedule, error) {
	return runUniform(t, p, sched.IDParDeepestFirst, 0)
}

// MemCapped schedules under a hard peak-memory cap by activating tasks in
// optimal-postorder order (the paper's future-work proposal). It fails if
// cap is below the sequential requirement.
func MemCapped(t *Tree, p int, cap int64) (*Schedule, error) {
	return runUniform(t, p, sched.IDMemCapped, cap)
}

// MemCappedBooking schedules under a hard peak-memory cap with
// deepest-first admission: memory not booked for the reference traversal's
// future needs is lent to out-of-order tasks, recovering most of the
// parallelism lost by MemCapped while never deadlocking or exceeding cap.
func MemCappedBooking(t *Tree, p int, cap int64) (*Schedule, error) {
	return runUniform(t, p, sched.IDMemCappedBooking, cap)
}

// runUniform runs heuristic id on t on the paper's uniform machine of p
// processors, through a Precompute built for this one call.
func runUniform(t *Tree, p int, id HeuristicID, cap int64) (*Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("sched: need at least one processor, got %d", p)
	}
	return sched.NewPrecompute(t).Run(id, machine.Uniform(p), cap)
}

// SplitSubtrees exposes the makespan-optimal subtree decomposition used by
// ParSubtrees (paper Alg. 2, Lemma 1). It fails for p < 1.
func SplitSubtrees(t *Tree, p int) (Splitting, error) { return sched.SplitSubtrees(t, p) }

// Precompute is the shared per-tree scheduling context: Liu's
// memory-optimal postorder, M_seq, depths and the per-heuristic priority
// rankings, computed once per tree and safe for concurrent use. Build one
// with NewPrecompute when scheduling the same tree more than once (several
// heuristics, repeated calls, different machines) and call its Run method
// — Run(id, machine, cap), with machine from UniformMachine or
// ParseMachineSpec and cap the absolute memory cap of the capped
// heuristics (ignored by the rest) — instead of the package-level
// functions, which construct a throwaway context per call.
type Precompute = sched.Precompute

// NewPrecompute builds the shared scheduling context for t. O(n log n),
// amortized across every schedule subsequently produced from it.
func NewPrecompute(t *Tree) *Precompute { return sched.NewPrecompute(t) }

// PrecomputeCache is a size-aware LRU for sharing Precompute contexts
// across requests, with weighted admission: entries above 1/8 of the byte
// budget must be offered twice before they displace the resident working
// set. It backs treeschedd's cross-request cache and is safe for
// concurrent use.
type PrecomputeCache = sched.PrecomputeCache

// PrecomputeCacheStats is a point-in-time snapshot of a PrecomputeCache.
type PrecomputeCacheStats = sched.PrecomputeCacheStats

// NewPrecomputeCache builds a PrecomputeCache holding at most budgetBytes
// of Precompute state (estimated via Precompute.SizeBytes). It panics if
// budgetBytes ≤ 0.
func NewPrecomputeCache(budgetBytes int64) *PrecomputeCache {
	return sched.NewPrecomputeCache(budgetBytes)
}

// Evaluate validates s against t and returns its makespan and exact
// simulated peak memory in one pooled pass — the cheapest way to measure
// a schedule (schedules produced by this module's schedulers carry an
// inline-tracked peak and evaluate in O(n) without the event replay).
func Evaluate(t *Tree, s *Schedule) (makespan float64, peak int64, err error) {
	return sched.Evaluate(t, s)
}

// Heuristics returns the paper's four heuristics in Table 1 order.
func Heuristics() []Heuristic { return sched.Heuristics() }

// HeuristicByName resolves a heuristic by name ("ParSubtrees",
// "ParSubtreesOptim", "ParInnerFirst", "ParDeepestFirst", and the extras
// "ParInnerFirstArbitrary", "Sequential", "OptimalSequential").
func HeuristicByName(name string) (Heuristic, bool) { return sched.ByName(name) }

// ParseHeuristic resolves a heuristic wire name to its typed ID for use in
// ScheduleOptions; it additionally recognizes the memory-capped
// schedulers ("MemCapped", "MemCappedBooking"). Unknown names yield an
// error enumerating every valid name.
func ParseHeuristic(name string) (HeuristicID, error) { return sched.ParseHeuristic(name) }

// Portfolio scheduling (see internal/portfolio): race heuristics
// concurrently, compute the Pareto frontier, select by objective.

// RunPortfolio races the candidate heuristics of opts (default: the
// paper's four plus the Sequential baseline) concurrently over t and
// selects a winner under obj. The shared precomputation (the
// memory-optimal postorder and M_seq) runs once; each candidate is
// individually panic-contained; ctx cancellation abandons unstarted
// candidates.
func RunPortfolio(ctx context.Context, t *Tree, obj Objective, opts PortfolioOptions) (*PortfolioResult, error) {
	return portfolio.Run(ctx, t, obj, opts)
}

// ParetoFrontier returns the indices of the Pareto-optimal candidates for
// the (makespan, peak memory) bi-criteria minimization, in ascending
// makespan order with deterministic ID tie-breaking.
func ParetoFrontier(cands []PortfolioCandidate) []int { return portfolio.Frontier(cands) }

// DefaultPortfolioCandidates returns the default racing set: the paper's
// four heuristics plus the Sequential baseline.
func DefaultPortfolioCandidates() []HeuristicID { return portfolio.DefaultCandidates() }

// MinMakespan selects the fastest candidate.
func MinMakespan() Objective { return portfolio.MinMakespan() }

// MinMemory selects the most memory-frugal candidate.
func MinMemory() Objective { return portfolio.MinMemory() }

// MakespanUnderMemCap selects the fastest candidate with peak memory at
// most factor × M_seq.
func MakespanUnderMemCap(factor float64) Objective { return portfolio.MakespanUnderMemCap(factor) }

// MemoryUnderDeadline selects the most memory-frugal candidate with
// makespan at most d × the makespan lower bound.
func MemoryUnderDeadline(d float64) Objective { return portfolio.MemoryUnderDeadline(d) }

// Weighted minimizes alpha·(makespan/LB) + (1−alpha)·(memory/M_seq).
func Weighted(alpha float64) Objective { return portfolio.Weighted(alpha) }

// ParseObjective parses the objective wire syntax ("min_makespan",
// "min_memory", "makespan_under_memcap:F", "memory_under_deadline:D",
// "weighted:A"), as accepted by the service's "objective" field and the
// CLI's -objective flag.
func ParseObjective(s string) (Objective, error) { return portfolio.ParseObjective(s) }

// Exact solving (see internal/exact): branch-and-bound to proven
// optimality on small trees — the ground-truth oracle the heuristics are
// differentially tested against, and an anytime portfolio candidate
// (HeuristicID "Exact").

// ExactResult is the outcome of an exact solve: the best schedule found,
// its measures, whether optimality was proven within the node budget, and
// the search statistics.
type ExactResult = exact.Result

// MaxExactNodes is the largest tree the exact solver accepts.
const MaxExactNodes = exact.MaxSolveNodes

// DefaultExactNodeBudget is the search budget used when SolveExact is
// called with budget 0, in explored branch-and-bound decision nodes
// (never wall-clock time, so solves are reproducible everywhere).
const DefaultExactNodeBudget = exact.DefaultNodeBudget

// ErrExactInfeasible is wrapped by SolveExact when no schedule of any
// kind can respect the memory cap (the cap is below the optimal
// sequential traversal's peak, the provable floor).
var ErrExactInfeasible = exact.ErrInfeasible

// SolveExact computes a minimum-makespan schedule of t on m under the
// global memory cap (math.MaxInt64 for none), proving optimality when the
// branch-and-bound completes within budget nodes (0 means
// DefaultExactNodeBudget) and returning the best schedule found
// otherwise. Trees above MaxExactNodes are rejected.
func SolveExact(t *Tree, m *MachineModel, cap int64, budget int64) (*ExactResult, error) {
	return exact.Solve(t, m, cap, budget)
}

// ParseExactBudget parses a node-budget spec: a positive integer with an
// optional k/M/G suffix ("500k", "2M"), as accepted by the treesched
// CLI's -budget flag.
func ParseExactBudget(s string) (int64, error) { return exact.ParseBudget(s) }

// Online multi-tenant forest scheduling (see internal/forest): stream
// tree-jobs onto one shared machine under a global memory cap.

// RunForest simulates a job trace on one shared machine: each job is
// planned standalone (heuristic or portfolio race per job), and the
// discrete-event engine interleaves all admitted jobs at task granularity
// under cross-tree memory booking, so resident memory never exceeds the
// cap and admission never deadlocks. Deterministic for a fixed (trace,
// config).
func RunForest(ctx context.Context, jobs []ForestJob, cfg ForestConfig) (*ForestResult, error) {
	return forest.Run(ctx, jobs, cfg)
}

// FIFO admits forest jobs strictly in arrival order (no backfilling).
func FIFO() ForestPolicy { return forest.FIFO() }

// SJFByWork admits the queued job with the least total work first.
func SJFByWork() ForestPolicy { return forest.SJFByWork() }

// SmallestMemFirst admits the queued job with the smallest sequential
// peak (M_seq) first.
func SmallestMemFirst() ForestPolicy { return forest.SmallestMemFirst() }

// WeightedFair admits by weighted finish tag arrival + work/weight.
func WeightedFair() ForestPolicy { return forest.WeightedFair() }

// ParsePolicy resolves an admission-policy wire name ("fifo", "sjf",
// "smallest_mseq", "weighted_fair").
func ParsePolicy(s string) (ForestPolicy, error) { return forest.ParsePolicy(s) }

// DecodeForestTrace parses an NDJSON forest trace (one ForestJob per
// line) with everything unlimited; servers should bound inputs with
// forest.DecodeLimits instead.
func DecodeForestTrace(r io.Reader) ([]ForestJob, error) {
	return forest.DecodeTrace(r, forest.DecodeLimits{})
}

// EncodeForestTrace writes jobs as an NDJSON trace readable by
// DecodeForestTrace and by the service's /v1/forest endpoint.
func EncodeForestTrace(w io.Writer, jobs []ForestJob) error { return forest.EncodeTrace(w, jobs) }

// GenForestTrace synthesizes a deterministic job trace (Poisson or bursty
// arrivals over mixed tree families), as used by `treegen -forest` and
// the forest benchmark suite.
func GenForestTrace(cfg ForestGenConfig) ([]ForestJob, error) { return forest.GenTrace(cfg) }

// Scheduling service (see cmd/treeschedd and internal/service).

// NewServer builds the scheduling-as-a-service HTTP server. Mount
// Server.Handler on an http.Server and Close the Server after shutdown.
func NewServer(cfg ServerConfig) *Server { return service.New(cfg) }

// Schedule analysis.

// PeakMemory returns the exact peak memory of schedule s on t, from the
// discrete-event simulation of file lifetimes.
func PeakMemory(t *Tree, s *Schedule) int64 { return sched.PeakMemory(t, s) }

// MakespanLowerBound returns max(total work / p, critical path).
func MakespanLowerBound(t *Tree, p int) float64 { return sched.MakespanLowerBound(t, p) }

// Machine models (heterogeneous / related processors).

// UniformMachine returns the paper's machine: p identical unit-speed
// processors. Every scheduler reduces byte-for-byte to its historical
// behavior on a uniform machine.
func UniformMachine(p int) *MachineModel { return machine.Uniform(p) }

// NewMachine builds a machine model from per-processor speeds (every
// speed a positive finite number).
func NewMachine(speeds []float64) (*MachineModel, error) { return machine.New(speeds) }

// ParseMachineSpec parses the textual machine spec accepted everywhere a
// machine can be named (the service's "machine" field and query
// parameter, the -machine CLI flags): a bare processor count ("4") or
// COUNTxSPEED groups joined by '+' ("2x1.0+2x0.5" — 2 unit-speed plus 2
// half-speed processors).
func ParseMachineSpec(spec string) (*MachineModel, error) { return machine.ParseSpec(spec) }

// MakespanLowerBoundOn is the speed-scaled makespan lower bound on an
// explicit machine model: max(ΣW / Σ speeds, critical path / s_max).
func MakespanLowerBoundOn(t *Tree, m *MachineModel) float64 {
	return sched.MakespanLowerBoundOn(t, m)
}

// MemoryLowerBound returns the sequential memory reference M_seq (best
// postorder peak).
func MemoryLowerBound(t *Tree) int64 { return sched.MemoryLowerBound(t) }

// Sparse-matrix substrate: synthesizing assembly trees.

// Grid2D returns the 5-point-stencil pattern of an nx × ny grid.
func Grid2D(nx, ny int) *Pattern { return spm.Grid2D(nx, ny) }

// Grid3D returns the 7-point-stencil pattern of an nx × ny × nz grid.
func Grid3D(nx, ny, nz int) *Pattern { return spm.Grid3D(nx, ny, nz) }

// RandomSymmetric returns a connected random pattern with ~avgDeg
// neighbors per vertex.
func RandomSymmetric(rng *rand.Rand, n int, avgDeg float64) *Pattern {
	return spm.RandomSym(rng, n, avgDeg)
}

// NestedDissection returns a nested-dissection ordering of p.
func NestedDissection(p *Pattern) Perm { return spm.NestedDissection(p) }

// MinimumDegree returns a minimum-degree ordering of p.
func MinimumDegree(p *Pattern) Perm { return spm.MinimumDegree(p) }

// AssemblyTree runs the multifrontal pipeline — elimination tree, symbolic
// factorization, relaxed amalgamation with at most maxEta columns per node
// — and returns the task tree weighted with the paper's cost model (§6.2).
func AssemblyTree(p *Pattern, perm Perm, maxEta int) (*Tree, error) {
	return spm.AssemblyTree(p, perm, maxEta)
}

// EvaluationCollection builds the deterministic synthetic tree collection
// standing in for the paper's 608 assembly trees. scale is one of "quick",
// "standard", "full".
func EvaluationCollection(scale string, seed int64) ([]Instance, error) {
	s := dataset.Standard
	switch scale {
	case "quick":
		s = dataset.Quick
	case "full":
		s = dataset.Full
	}
	return dataset.Collection(s, seed)
}

// Numeric multifrontal engine.

// NewFactorizer runs the symbolic analysis of the SPD matrix a (with the
// sparsity of p) under perm, ready to factorize numerically under any tree
// traversal. The engine's measured peak memory matches the abstract model
// entry for entry.
func NewFactorizer(p *Pattern, perm Perm, a *DenseMatrix) (*Factorizer, error) {
	return frontal.NewFactorizer(p, perm, a)
}

// SPDMatrix builds a random symmetric positive-definite matrix with the
// sparsity pattern of p (strictly diagonally dominant).
func SPDMatrix(rng *rand.Rand, p *Pattern) *DenseMatrix { return frontal.SPDFromPattern(rng, p) }

// Complexity gadgets (paper §4).

// ForkTree builds the Figure 3 worst case for ParSubtrees' makespan.
func ForkTree(p, k int) *Tree { return pebble.ForkTree(p, k) }

// JoinChainTree builds the Figure 4 worst case for ParInnerFirst's memory.
func JoinChainTree(p, k int) *Tree { return pebble.JoinChainTree(p, k) }

// SpiderTree builds the Figure 5 worst case for ParDeepestFirst's memory.
func SpiderTree(m, minChain int) *Tree { return pebble.SpiderTree(m, minChain) }
