package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"treesched/internal/forest"
	"treesched/internal/machine"
	"treesched/internal/portfolio"
	"treesched/internal/sched"
	"treesched/internal/service"
	"treesched/internal/spm"
	"treesched/internal/tree"
)

// Request kinds, one per treeschedd endpoint the workloads drive.
const (
	kindSchedule  = "schedule"
	kindPortfolio = "portfolio"
	kindBatch     = "batch"
	kindForest    = "forest"
)

// Pool sizes. A run ends after --seconds or when its requests are used
// up. At the seed commit on a 2-core machine a 20-second run answers about
// 5,000 cold-mixed, 9,000 hot-repeat, 500 capped-batch and 450
// forest-trace requests. The cold-mixed and capped-batch pools cost
// memory in proportion, since every tree in them is new, so they hold the
// least headroom.
const (
	coldRequests   = 5600
	hotRequests    = 20000
	hotPool        = 256
	batchRequests  = 600
	batchLines     = 8
	forestRequests = 1000
	forestJobs     = 16
	warmCold       = 24
)

// hetMachine is the heterogeneous machine 1 request in 8 uses on the
// single-request workloads.
const hetMachine = "2x1.0+2x0.5"

// weights draws every random tree's task weights: processing times in
// [1,10], execution files in [0,5] and output files in [1,20] — the
// forest generator's spec, so all workloads share one weight model.
var weights = tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}

// item is one tree inside a request: the request itself on the single
// endpoints, one line of a batch, one job of a forest trace. It carries
// everything the answer checks and the quality metrics need, so the trees
// themselves are dropped once encoded.
type item struct {
	id         string
	nodes      int
	hash       string // tree.CanonicalHash of the tree as sent
	format     string // "json" or "text"
	selection  string // composition label: paper4, single, portfolio, capped, forest
	heuristics []sched.HeuristicID
	capFactor  float64
	machine    string
	// lb is the makespan lower bound on the request's machine; for forest
	// jobs, whose planning width is chosen by the engine, totalW and cp
	// give the bound at any width.
	lb, totalW, cp float64
}

// request is one HTTP request, encoded before timing starts. Its body is
// the concatenation of pieces: encoded trees are shared between the
// requests of hot-repeat that carry the same tree.
type request struct {
	kind   string
	path   string // URL path and query
	pieces [][]byte
	size   int
	items  []item
	// key identifies (tree, options) for the repeat-share statistics;
	// treeKey identifies the tree alone. Both are empty on batches and
	// traces, whose trees are all new.
	key, treeKey string
}

// input is one workload's generated traffic: the warm-up requests sent
// before timing and the timed requests, in sending order.
type input struct {
	workload string
	seed     int64
	warm     []request
	reqs     []request
	arena    *arena // holds the encoded trees; release it after the last use
}

// workload is one traffic mix.
type workload struct {
	name string
	gen  func(*rand.Rand, *input) error
	// tail is the latency percentile reported as latency_tail_ms: the
	// highest of p99 and p90 with at least ten samples beyond it in one
	// measurement window of a run_seconds run at the seed commit's
	// throughput. Batch and forest requests take tens of milliseconds, so
	// a window holds about a hundred of them, too few for a p99.
	tail float64
}

// workloads in documentation order. A workload's position salts its
// random stream, so one seed gives unrelated traffic on each; appending
// keeps the existing workloads' inputs unchanged.
var workloads = []workload{
	{"cold-mixed", genCold, 0.99},
	{"hot-repeat", genHot, 0.99},
	{"capped-batch", genBatch, 0.90},
	{"forest-trace", genForest, 0.90},
}

func findWorkload(name string) (int, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return i, nil
		}
		names[i] = w.name
	}
	return 0, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// generate builds a workload's traffic from the seed alone.
func generate(name string, seed int64) (*input, error) {
	k, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*7919 + int64(k) + 1))
	in := &input{workload: name, seed: seed, arena: &arena{}}
	if err := workloads[k].gen(rng, in); err != nil {
		in.arena.release()
		return nil, err
	}
	return in, nil
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi int) int {
	v := math.Exp(math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo))))
	return min(max(int(math.Round(v)), lo), hi)
}

// randomFamilies are the shapes the single-request workloads draw from,
// with assemblyTree making up the fifth family.
var randomFamilies = []string{"attachment", "prufer", "binary", "caterpillar"}

func familyTree(rng *rand.Rand, family string, n int) *tree.Tree {
	switch family {
	case "attachment":
		return tree.RandomAttachment(rng, n, weights)
	case "prufer":
		return tree.RandomPrufer(rng, n, weights)
	case "binary":
		return tree.RandomBinary(rng, n, weights)
	default: // caterpillar: a spine of n/4 nodes with 3 legs each
		return tree.Caterpillar(rng, max(n/4, 2), 3, weights)
	}
}

// assemblyLib is a per-seed library of sparse-matrix assembly trees
// (elimination tree, column counts, relaxed amalgamation) spanning
// 10²–10⁴ nodes. Building one costs tens of milliseconds at 10⁴ columns,
// so draws reuse a library tree's structure and memory weights and
// rescale its processing times: every drawn tree is new to the server's
// caches while keeping the assembly shape.
type assemblyLib []*tree.Tree

func newAssemblyLib(rng *rand.Rand) (assemblyLib, error) {
	const entries = 12
	lib := make(assemblyLib, 0, entries)
	for k := 0; k < entries; k++ {
		target := 100 * math.Pow(100, float64(k)/float64(entries-1))
		eta := []int{1, 2, 4}[k%3]
		m := int(target * []float64{1, 1.6, 3}[k%3])
		var p *spm.Pattern
		switch k % 4 {
		case 0:
			side := int(math.Ceil(math.Sqrt(float64(m))))
			p = spm.Grid2D(side, side)
		case 1:
			p = spm.RandomSym(rng, m, 3)
		case 2:
			p = spm.PowerLaw(rng, m, 1)
		default:
			p = spm.Band(m, 3)
		}
		t, err := spm.AssemblyTree(p, spm.RCM(p), eta)
		if err != nil {
			return nil, fmt.Errorf("assembly tree %d: %w", k, err)
		}
		lib = append(lib, t)
	}
	sort.Slice(lib, func(i, j int) bool { return lib[i].Len() < lib[j].Len() })
	return lib, nil
}

// draw returns a copy of the library tree closest to n nodes (in log
// size) with every processing time scaled by a factor in [0.5, 1.5).
func (lib assemblyLib) draw(rng *rand.Rand, n int) *tree.Tree {
	best := lib[0]
	for _, t := range lib {
		if math.Abs(math.Log(float64(t.Len())/float64(n))) < math.Abs(math.Log(float64(best.Len())/float64(n))) {
			best = t
		}
	}
	m := best.Len()
	parent := make([]int, m)
	w := make([]float64, m)
	nn := make([]int64, m)
	f := make([]int64, m)
	for i := 0; i < m; i++ {
		parent[i] = best.Parent(i)
		w[i] = best.W(i) * (0.5 + rng.Float64())
		nn[i] = best.N(i)
		f[i] = best.F(i)
	}
	return tree.MustNew(parent, w, nn, f)
}

// goldenFrac is the fractional part of the golden ratio: frac(x0 + i·φ)
// spreads every run of consecutive i evenly over [0, 1).
const goldenFrac = 0.6180339887498949

// spread returns the i-th point of the golden-ratio sequence from x0.
func spread(x0 float64, i int) float64 {
	return math.Mod(x0+float64(i)*goldenFrac, 1)
}

// singleTree draws tree i of a single-request workload: its size is the
// log-uniform quantile q of 10²–10⁴ nodes, and its family cycles through
// the four random families and the assembly trees. Callers take q from
// the golden-ratio sequence, so any window of consecutive requests holds
// the same mix of sizes and families for every seed, and throughput and
// latency differ between seeds only through the trees' random structure.
func singleTree(rng *rand.Rand, lib assemblyLib, i int, q float64) *tree.Tree {
	n := int(math.Round(100 * math.Pow(100, q)))
	if k := i % (len(randomFamilies) + 1); k < len(randomFamilies) {
		return familyTree(rng, randomFamilies[k], n)
	}
	return lib.draw(rng, n)
}

// encodedTree holds a tree's wire encodings plus what the checks need
// from it.
type encodedTree struct {
	json, text []byte // the "tree" object and the "tree_text" string literal
	nodes      int
	hash       string
	lbs        map[string]float64 // makespan lower bound by machine ("" = p from the request)
	t          *tree.Tree         // dropped once the requests carrying it are built
}

// encodeTree encodes t in the wire formats asked for ("json", "text"),
// into the arena.
func encodeTree(a *arena, t *tree.Tree, formats ...string) (*encodedTree, error) {
	et := &encodedTree{nodes: t.Len(), hash: t.CanonicalHash(), t: t}
	for _, f := range formats {
		enc, err := []byte(nil), error(nil)
		if f == "json" {
			enc, err = t.MarshalJSON()
		} else {
			enc = appendTreeText(nil, t)
		}
		if err == nil {
			enc, err = a.copy(enc)
		}
		if err != nil {
			return nil, fmt.Errorf("encoding a %d-node tree: %w", t.Len(), err)
		}
		if f == "json" {
			et.json = enc
		} else {
			et.text = enc
		}
	}
	return et, nil
}

// appendTreeText appends t in the textual treegen format (exactly what
// (*tree.Tree).Encode writes) as a JSON string literal. Encode formats
// through fmt, which would make input generation the larger part of
// set-up; the round-trip test pins the two encoders together.
func appendTreeText(b []byte, t *tree.Tree) []byte {
	b = append(b, '"')
	b = strconv.AppendInt(b, int64(t.Len()), 10)
	b = append(b, `\n`...)
	for i := 0; i < t.Len(); i++ {
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(t.Parent(i)), 10)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, t.W(i), 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendInt(b, t.N(i), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, t.F(i), 10)
		b = append(b, `\n`...)
	}
	return append(b, '"')
}

// singleOpts is the option mix of cold-mixed and hot-repeat: about ½
// paper-four on /v1/schedule, ⅕ one list heuristic, 30% portfolio races;
// p ∈ {4, 8, 16}, and 1 request in 8 on the heterogeneous machine.
type singleOpts struct {
	kind      string
	selection string
	heur      []sched.HeuristicID
	objective string
	p         int
	machine   string
}

func drawSingleOpts(rng *rand.Rand) singleOpts {
	o := singleOpts{p: []int{4, 8, 16}[rng.Intn(3)]}
	if rng.Intn(8) == 0 {
		o.machine, o.p = hetMachine, 0
	}
	switch u := rng.Float64(); {
	case u < 0.5:
		o.kind, o.selection = kindSchedule, "paper4"
	case u < 0.7:
		o.kind, o.selection = kindSchedule, "single"
		o.heur = []sched.HeuristicID{[]sched.HeuristicID{sched.IDParInnerFirst, sched.IDParDeepestFirst}[rng.Intn(2)]}
	default:
		o.kind, o.selection = kindPortfolio, "portfolio"
		o.objective = []string{"min_makespan", "weighted:0.5", "makespan_under_memcap:2"}[rng.Intn(3)]
	}
	return o
}

// expectedHeuristics is the result set a response must carry, in order.
func (o singleOpts) expectedHeuristics() []sched.HeuristicID {
	switch {
	case o.kind == kindPortfolio:
		return portfolio.DefaultCandidates()
	case len(o.heur) > 0:
		return o.heur
	}
	return sched.PaperHeuristics()
}

// bodyPieces splices an encoded tree into a marshalled envelope:
// {"<field>":<tree>,<envelope fields>}.
func bodyPieces(envelope any, field string, enc []byte) ([][]byte, error) {
	head, err := json.Marshal(envelope)
	if err != nil {
		return nil, err
	}
	return [][]byte{[]byte(`{"` + field + `":`), enc, []byte(","), head[1:]}, nil
}

// lowerBound is the makespan lower bound of et on the request's machine,
// memoized per machine for trees that several requests share.
func (et *encodedTree) lowerBound(o singleOpts) (float64, error) {
	key := o.machine
	if key == "" {
		key = strconv.Itoa(o.p)
	}
	if lb, ok := et.lbs[key]; ok {
		return lb, nil
	}
	m := machine.Uniform(max(o.p, 1))
	if o.machine != "" {
		var err error
		if m, err = machine.ParseSpec(o.machine); err != nil {
			return 0, err
		}
	}
	if et.lbs == nil {
		et.lbs = map[string]float64{}
	}
	et.lbs[key] = sched.MakespanLowerBoundOn(et.t, m)
	return et.lbs[key], nil
}

// singleRequest builds one /v1/schedule or /v1/portfolio request.
func singleRequest(id string, et *encodedTree, format string, o singleOpts) (request, error) {
	env := service.Request{ID: id, Processors: o.p, Machine: o.machine, Heuristics: o.heur}
	if o.objective != "" {
		obj, err := portfolio.ParseObjective(o.objective)
		if err != nil {
			return request{}, err
		}
		env.Objective = &obj
	}
	field, enc := "tree", et.json
	if format == "text" {
		field, enc = "tree_text", et.text
	}
	pieces, err := bodyPieces(env, field, enc)
	if err != nil {
		return request{}, err
	}
	lb, err := et.lowerBound(o)
	if err != nil {
		return request{}, err
	}
	path := "/v1/schedule"
	if o.kind == kindPortfolio {
		path = "/v1/portfolio"
	}
	it := item{id: id, nodes: et.nodes, hash: et.hash, format: format, selection: o.selection,
		heuristics: o.expectedHeuristics(), machine: o.machine, lb: lb}
	opts := fmt.Sprintf("%s|p=%d|m=%s|h=%v|o=%s", o.kind, o.p, o.machine, o.heur, o.objective)
	return newRequest(o.kind, path, pieces, []item{it}, et.hash+"|"+opts, et.hash), nil
}

func newRequest(kind, path string, pieces [][]byte, items []item, key, treeKey string) request {
	size := 0
	for _, p := range pieces {
		size += len(p)
	}
	return request{kind: kind, path: path, pieces: pieces, size: size, items: items, key: key, treeKey: treeKey}
}

func pickFormat(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "json"
	}
	return "text"
}

// buildAll builds n values in parallel on GOMAXPROCS goroutines. Value i
// draws only from its own random stream, seeded from the caller's stream
// in index order, so the result does not depend on scheduling.
func buildAll[T any](rng *rand.Rand, n int, build func(i int, rng *rand.Rand) (T, error)) ([]T, error) {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i], errs[i] = build(i, rand.New(rand.NewSource(seeds[i])))
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// genCold: every request carries a new tree.
func genCold(rng *rand.Rand, in *input) error {
	lib, err := newAssemblyLib(rng)
	if err != nil {
		return err
	}
	build := func(prefix string, x0 float64) func(int, *rand.Rand) (request, error) {
		return func(i int, rng *rand.Rand) (request, error) {
			t := singleTree(rng, lib, i, spread(x0, i))
			format := pickFormat(rng)
			et, err := encodeTree(in.arena, t, format)
			if err != nil {
				return request{}, err
			}
			return singleRequest(prefix+strconv.Itoa(i), et, format, drawSingleOpts(rng))
		}
	}
	if in.warm, err = buildAll(rng, warmCold, build("w", rng.Float64())); err != nil {
		return err
	}
	in.reqs, err = buildAll(rng, coldRequests, build("c", rng.Float64()))
	return err
}

// genHot: a fixed pool of trees requested with Zipf popularity, so both
// server caches serve hits while the key space and the pool's Precompute
// bytes exceed their capacities.
func genHot(rng *rand.Rand, in *input) error {
	lib, err := newAssemblyLib(rng)
	if err != nil {
		return err
	}
	// Pool index = popularity rank. Sizes and families follow the rank
	// through the golden-ratio sequence from a fixed start, so the
	// popularity-weighted size mix is the same for every seed: with Zipf
	// popularity a dozen trees take half the traffic, and a random size
	// for each would swing throughput several-fold between seeds.
	pool, err := buildAll(rng, hotPool, func(r int, rng *rand.Rand) (*encodedTree, error) {
		return encodeTree(in.arena, singleTree(rng, lib, r, spread(0.5, r)), "json", "text")
	})
	if err != nil {
		return err
	}
	// Warm-up passes over the pool once, in pool order.
	for i, et := range pool {
		r, err := singleRequest("w"+strconv.Itoa(i), et, pickFormat(rng), drawSingleOpts(rng))
		if err != nil {
			return err
		}
		in.warm = append(in.warm, r)
	}
	// Popularity is Zipf(1.1) over the ranks, sampled at the golden-ratio
	// sequence through the inverse CDF: every window of requests holds
	// each rank's share of the traffic almost exactly, whatever the seed.
	cdf := make([]float64, hotPool)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -1.1)
		cdf[r] = total
	}
	x0 := rng.Float64()
	in.reqs = make([]request, 0, hotRequests)
	for i := 0; i < hotRequests; i++ {
		u := spread(x0, i) * total
		et := pool[min(sort.SearchFloat64s(cdf, u), hotPool-1)]
		r, err := singleRequest("h"+strconv.Itoa(i), et, pickFormat(rng), drawSingleOpts(rng))
		if err != nil {
			return err
		}
		in.reqs = append(in.reqs, r)
	}
	for _, et := range pool {
		et.t = nil
	}
	return nil
}

// batchFamilies are the capped-batch shapes, the ones where booking is
// slow.
var batchFamilies = []string{"attachment", "binary", "prufer", "caterpillar"}

// batchRequest builds batch b: batchLines NDJSON lines, each a new
// tree_text tree of 200–3,000 nodes selecting both memory-capped
// schedulers.
func batchRequest(a *arena, rng *rand.Rand, prefix string, b int) (request, error) {
	heur := []sched.HeuristicID{sched.IDMemCapped, sched.IDMemCappedBooking}
	var pieces [][]byte
	items := make([]item, 0, batchLines)
	for l := 0; l < batchLines; l++ {
		t := familyTree(rng, batchFamilies[rng.Intn(len(batchFamilies))], logUniform(rng, 200, 3000))
		et, err := encodeTree(a, t, "text")
		if err != nil {
			return request{}, err
		}
		id := prefix + strconv.Itoa(b) + "." + strconv.Itoa(l)
		factor := []float64{1.5, 2, 3}[rng.Intn(3)]
		p := []int{4, 8}[rng.Intn(2)]
		env := service.Request{ID: id, Processors: p, Heuristics: heur, MemCapFactor: factor}
		line, err := bodyPieces(env, "tree_text", et.text)
		if err != nil {
			return request{}, err
		}
		pieces = append(append(pieces, line...), []byte("\n"))
		items = append(items, item{id: id, nodes: et.nodes, hash: et.hash, format: "text",
			selection: "capped", heuristics: heur, capFactor: factor,
			lb: sched.MakespanLowerBound(t, p)})
	}
	return newRequest(kindBatch, "/v1/schedule/batch", pieces, items, "", ""), nil
}

func genBatch(rng *rand.Rand, in *input) error {
	build := func(prefix string) func(int, *rand.Rand) (request, error) {
		return func(b int, rng *rand.Rand) (request, error) { return batchRequest(in.arena, rng, prefix, b) }
	}
	var err error
	if in.warm, err = buildAll(rng, 2, build("wb")); err != nil {
		return err
	}
	in.reqs, err = buildAll(rng, batchRequests, build("b"))
	return err
}

// forestPolicies is the policy cycle of forest-trace.
var forestPolicies = []string{"fifo", "sjf", "smallest_mseq", "weighted_fair"}

// forestObjectives are the objectives a quarter of forest jobs carry.
var forestObjectives = []string{"min_makespan", "weighted:0.5", "makespan_under_memcap:2", "min_memory"}

// forestRequest builds trace r: forestJobs bursty jobs of 50–400 nodes on
// an 8-processor machine under a 1.5 × max M_seq cap; about 1 job in 4
// carries an objective, so its plan is a portfolio race. The policy
// cycles with r.
func forestRequest(a *arena, rng *rand.Rand, prefix string, r int) (request, error) {
	jobs, err := forest.GenTrace(forest.GenConfig{Jobs: forestJobs, Seed: rng.Int63(),
		Arrivals: "bursty", Burst: 4, MinNodes: 50, MaxNodes: 400})
	if err != nil {
		return request{}, err
	}
	var pieces [][]byte
	items := make([]item, 0, len(jobs))
	for j := range jobs {
		jb := jobs[j]
		t := jb.Tree
		jb.ID, jb.Tree = prefix+strconv.Itoa(r)+"."+strconv.Itoa(j), nil
		label := "forest"
		if rng.Intn(4) == 0 {
			obj, err := portfolio.ParseObjective(forestObjectives[rng.Intn(len(forestObjectives))])
			if err != nil {
				return request{}, err
			}
			jb.Objective, label = &obj, "forest-portfolio"
		}
		et, err := encodeTree(a, t, "json")
		if err != nil {
			return request{}, err
		}
		line, err := bodyPieces(jb, "tree", et.json)
		if err != nil {
			return request{}, err
		}
		pieces = append(append(pieces, line...), []byte("\n"))
		items = append(items, item{id: jb.ID, nodes: et.nodes, hash: et.hash, format: "json",
			selection: label, totalW: t.TotalW(), cp: t.CriticalPath()})
	}
	path := "/v1/forest?p=8&mem_cap_factor=1.5&policy=" + forestPolicies[r%len(forestPolicies)]
	return newRequest(kindForest, path, pieces, items, "", ""), nil
}

func genForest(rng *rand.Rand, in *input) error {
	build := func(prefix string) func(int, *rand.Rand) (request, error) {
		return func(r int, rng *rand.Rand) (request, error) { return forestRequest(in.arena, rng, prefix, r) }
	}
	var err error
	if in.warm, err = buildAll(rng, 4, build("wf")); err != nil {
		return err
	}
	in.reqs, err = buildAll(rng, forestRequests, build("f"))
	return err
}

// describe prints a workload's input properties, from the seed alone:
// tree sizes, wire formats, selection mix, lines per batch, jobs per
// trace, and how often a request repeats an earlier (tree, options) key
// or tree.
func describe(in *input) string {
	var nodes []float64
	formats, selections := map[string]int{}, map[string]int{}
	items, het, bytes := 0, 0, 0
	for _, r := range in.reqs {
		bytes += r.size
		for _, it := range r.items {
			items++
			nodes = append(nodes, float64(it.nodes))
			formats[it.format]++
			selections[it.selection]++
			if it.machine != "" {
				het++
			}
		}
	}
	seenKey, seenTree := map[string]bool{}, map[string]bool{}
	for _, r := range in.warm {
		seenKey[r.key], seenTree[r.treeKey] = true, true
	}
	repKey, repTree := 0, 0
	for _, r := range in.reqs {
		if r.key == "" {
			continue
		}
		if seenKey[r.key] {
			repKey++
		}
		if seenTree[r.treeKey] {
			repTree++
		}
		seenKey[r.key], seenTree[r.treeKey] = true, true
	}
	n := float64(len(in.reqs))
	var b strings.Builder
	fmt.Fprintf(&b, "inputs: %d timed requests (%d warm-up), %d trees, %.1f MB encoded; %.3g trees per request\n",
		len(in.reqs), len(in.warm), items, float64(bytes)/1e6, float64(items)/n)
	fmt.Fprintf(&b, "  nodes per tree: p10 %.0f, p50 %.0f, p90 %.0f, max %.0f\n",
		percentile(nodes, 0.1), percentile(nodes, 0.5), percentile(nodes, 0.9), percentile(nodes, 1))
	fmt.Fprintf(&b, "  wire format: %s; selection: %s; heterogeneous machine %.1f%%\n",
		shares(formats, items), shares(selections, items), 100*float64(het)/float64(items))
	fmt.Fprintf(&b, "  requests repeating an earlier (tree, options) key %.1f%%, an earlier tree %.1f%%\n",
		100*float64(repKey)/n, 100*float64(repTree)/n)
	return b.String()
}

func shares(counts map[string]int, total int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %.1f%%", k, 100*float64(counts[k])/float64(total))
	}
	return strings.Join(parts, ", ")
}
