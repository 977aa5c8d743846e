// Package report runs the paper's evaluation (§6) over a tree collection
// and regenerates its artifacts: Table 1 (best-performance shares and
// average deviations) and the data behind Figures 6, 7 and 8 (per-scenario
// normalized makespan/memory points with distribution crosses).
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"treesched/internal/dataset"
	"treesched/internal/machine"
	"treesched/internal/par"
	"treesched/internal/sched"
	"treesched/internal/stats"
)

// Scenario is one (tree, processor count) pair evaluated with every
// heuristic, normalized against the lower bounds.
type Scenario struct {
	Instance string
	Nodes    int
	P        int
	MemLB    int64   // sequential postorder memory (paper's reference)
	MsLB     float64 // max(W/p, critical path)

	// Per heuristic, in the order of Heuristics.
	Makespan []float64
	Memory   []int64
}

// Heuristics returns the heuristic names in Table 1 order.
func Heuristics() []string {
	hs := sched.Heuristics()
	names := make([]string, len(hs))
	for i, h := range hs {
		names[i] = h.Name
	}
	return names
}

// Run evaluates all heuristics on every (instance, p) pair. Scenarios are
// independent, so they are evaluated by a pool of GOMAXPROCS workers; the
// result order is deterministic (instances × procs, in input order).
func Run(instances []dataset.Instance, procs []int) ([]Scenario, error) {
	ids := sched.PaperHeuristics()
	out := make([]Scenario, len(instances)*len(procs))
	// One shared Precompute per instance: Liu's DP, the priority rankings
	// and M_seq are computed once and reused across every heuristic and
	// every processor count (a Precompute is concurrency-safe).
	pcs := make([]*sched.Precompute, len(instances))

	var firstErr atomic.Value
	par.ForEach(len(instances), func(i int) {
		pcs[i] = sched.NewPrecompute(instances[i].Tree)
	})
	par.ForEach(len(out), func(k int) {
		if firstErr.Load() != nil {
			return
		}
		inst := instances[k/len(procs)]
		pc := pcs[k/len(procs)]
		p := procs[k%len(procs)]
		sc := Scenario{
			Instance: inst.Name,
			Nodes:    inst.Tree.Len(),
			P:        p,
			MemLB:    pc.MSeq(),
			MsLB:     sched.MakespanLowerBound(inst.Tree, p),
			Makespan: make([]float64, len(ids)),
			Memory:   make([]int64, len(ids)),
		}
		for i, id := range ids {
			s, err := pc.Run(id, machine.Uniform(p), 0)
			if err != nil {
				firstErr.CompareAndSwap(nil, fmt.Errorf("report: %s on %s (p=%d): %w", id, inst.Name, p, err))
				return
			}
			sc.Makespan[i] = s.Makespan(inst.Tree)
			sc.Memory[i] = sched.PeakMemory(inst.Tree, s)
		}
		out[k] = sc
	})
	if err := firstErr.Load(); err != nil {
		return nil, err.(error)
	}
	return out, nil
}

// Table1Row is one line of the paper's Table 1.
type Table1Row struct {
	Heuristic    string
	BestMem      float64 // share of scenarios with the (equal-)lowest memory
	Within5Mem   float64 // share within 5% of the lowest memory
	AvgDevSeqMem float64 // mean of (memory/M_seq - 1), in percent
	BestMs       float64 // share of scenarios with the (equal-)lowest makespan
	Within5Ms    float64 // share within 5% of the lowest makespan
	AvgDevBestMs float64 // mean of (makespan/best - 1), in percent
}

// Table1 aggregates the scenarios into the paper's Table 1.
func Table1(scs []Scenario) []Table1Row {
	names := Heuristics()
	rows := make([]Table1Row, len(names))
	if len(scs) == 0 {
		for i, n := range names {
			rows[i].Heuristic = n
		}
		return rows
	}
	n := len(names)
	bestMem := make([][]float64, n) // 1 if best, else 0
	within5Mem := make([][]float64, n)
	devSeqMem := make([][]float64, n)
	bestMs := make([][]float64, n)
	within5Ms := make([][]float64, n)
	devBestMs := make([][]float64, n)
	for _, sc := range scs {
		minMem := sc.Memory[0]
		minMs := sc.Makespan[0]
		for i := 1; i < n; i++ {
			if sc.Memory[i] < minMem {
				minMem = sc.Memory[i]
			}
			if sc.Makespan[i] < minMs {
				minMs = sc.Makespan[i]
			}
		}
		for i := 0; i < n; i++ {
			bestMem[i] = append(bestMem[i], b2f(sc.Memory[i] == minMem))
			within5Mem[i] = append(within5Mem[i], b2f(float64(sc.Memory[i]) <= 1.05*float64(minMem)))
			if sc.MemLB > 0 {
				devSeqMem[i] = append(devSeqMem[i], (float64(sc.Memory[i])/float64(sc.MemLB)-1)*100)
			}
			bestMs[i] = append(bestMs[i], b2f(sc.Makespan[i] <= minMs*(1+1e-12)))
			within5Ms[i] = append(within5Ms[i], b2f(sc.Makespan[i] <= 1.05*minMs))
			if minMs > 0 {
				devBestMs[i] = append(devBestMs[i], (sc.Makespan[i]/minMs-1)*100)
			}
		}
	}
	for i, name := range names {
		rows[i] = Table1Row{
			Heuristic:    name,
			BestMem:      100 * stats.Mean(bestMem[i]),
			Within5Mem:   100 * stats.Mean(within5Mem[i]),
			AvgDevSeqMem: stats.Mean(devSeqMem[i]),
			BestMs:       100 * stats.Mean(bestMs[i]),
			Within5Ms:    100 * stats.Mean(within5Ms[i]),
			AvgDevBestMs: stats.Mean(devBestMs[i]),
		}
	}
	return rows
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// WriteTable1 renders Table 1 in the paper's layout.
func WriteTable1(w io.Writer, rows []Table1Row) error {
	if _, err := fmt.Fprintf(w, "%-18s %10s %12s %14s %10s %12s %14s\n",
		"Heuristic", "Best mem", "Within 5%", "Avg dev seq", "Best mks", "Within 5%", "Avg dev best"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-18s %9.1f%% %11.1f%% %13.1f%% %9.1f%% %11.1f%% %13.1f%%\n",
			r.Heuristic, r.BestMem, r.Within5Mem, r.AvgDevSeqMem, r.BestMs, r.Within5Ms, r.AvgDevBestMs); err != nil {
			return err
		}
	}
	return nil
}

// FigPoint is one scatter point of Figures 6-8: x is the makespan ratio,
// y the memory ratio against the figure's reference.
type FigPoint struct {
	Instance  string
	P         int
	Heuristic string
	X, Y      float64
}

// Fig6 normalizes every scenario against the lower bounds (paper Fig. 6).
func Fig6(scs []Scenario) []FigPoint {
	return figure(scs, func(sc Scenario, i int) (float64, float64) {
		return sc.Makespan[i] / sc.MsLB, float64(sc.Memory[i]) / float64(sc.MemLB)
	}, nil)
}

// Fig7 normalizes against ParSubtrees (paper Fig. 7); the reference
// heuristic itself is omitted, as in the paper.
func Fig7(scs []Scenario) []FigPoint { return figRelative(scs, "ParSubtrees") }

// Fig8 normalizes against ParInnerFirst (paper Fig. 8).
func Fig8(scs []Scenario) []FigPoint { return figRelative(scs, "ParInnerFirst") }

func figRelative(scs []Scenario, ref string) []FigPoint {
	names := Heuristics()
	refIdx := -1
	for i, n := range names {
		if n == ref {
			refIdx = i
		}
	}
	skip := map[int]bool{refIdx: true}
	return figure(scs, func(sc Scenario, i int) (float64, float64) {
		return sc.Makespan[i] / sc.Makespan[refIdx], float64(sc.Memory[i]) / float64(sc.Memory[refIdx])
	}, skip)
}

func figure(scs []Scenario, norm func(Scenario, int) (float64, float64), skip map[int]bool) []FigPoint {
	names := Heuristics()
	var pts []FigPoint
	for _, sc := range scs {
		for i, name := range names {
			if skip[i] {
				continue
			}
			x, y := norm(sc, i)
			pts = append(pts, FigPoint{Instance: sc.Instance, P: sc.P, Heuristic: name, X: x, Y: y})
		}
	}
	return pts
}

// Crosses computes the per-heuristic distribution cross (mean center,
// P10-P90 arms) of a figure's point cloud, keyed by heuristic name.
func Crosses(pts []FigPoint) map[string]stats.Cross {
	xs := map[string][]float64{}
	ys := map[string][]float64{}
	for _, p := range pts {
		xs[p.Heuristic] = append(xs[p.Heuristic], p.X)
		ys[p.Heuristic] = append(ys[p.Heuristic], p.Y)
	}
	out := make(map[string]stats.Cross, len(xs))
	for h := range xs {
		out[h] = stats.NewCross(xs[h], ys[h])
	}
	return out
}

// WriteCSV writes the points as CSV (instance,p,heuristic,x,y).
func WriteCSV(w io.Writer, pts []FigPoint) error {
	if _, err := io.WriteString(w, "instance,p,heuristic,x,y\n"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%s,%d,%s,%g,%g\n", p.Instance, p.P, p.Heuristic, p.X, p.Y); err != nil {
			return err
		}
	}
	return nil
}

// WriteCrosses renders the per-heuristic crosses sorted by name.
func WriteCrosses(w io.Writer, crosses map[string]stats.Cross) error {
	names := make([]string, 0, len(crosses))
	for n := range crosses {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%-18s %s\n", n, crosses[n]); err != nil {
			return err
		}
	}
	return nil
}

// Summary renders a one-paragraph comparison of the crosses, used by the
// experiment harness output.
func Summary(scs []Scenario) string {
	var sb strings.Builder
	rows := Table1(scs)
	fmt.Fprintf(&sb, "%d scenarios (%d heuristics)\n", len(scs), len(rows))
	_ = WriteTable1(&sb, rows)
	return sb.String()
}

// ByP recomputes Table 1 separately for each processor count, exposing how
// the heuristic trade-offs shift with parallelism (the paper aggregates
// over p; this is the natural per-p drill-down). Keys are the distinct P
// values of scs.
func ByP(scs []Scenario) map[int][]Table1Row {
	buckets := map[int][]Scenario{}
	for _, sc := range scs {
		buckets[sc.P] = append(buckets[sc.P], sc)
	}
	out := make(map[int][]Table1Row, len(buckets))
	for p, b := range buckets {
		out[p] = Table1(b)
	}
	return out
}

// WriteByP renders the per-p tables in ascending processor order.
func WriteByP(w io.Writer, byP map[int][]Table1Row) error {
	ps := make([]int, 0, len(byP))
	for p := range byP {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	for _, p := range ps {
		if _, err := fmt.Fprintf(w, "p = %d\n", p); err != nil {
			return err
		}
		if err := WriteTable1(w, byP[p]); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
