// Command e2ebench is the end-to-end benchmark of treeschedd. It starts
// the service in process behind net/http on a loopback listener, drives
// it with closed-loop clients over one of four seeded traffic mixes,
// checks every answer, and prints the end-to-end metrics; with --trace 1
// it adds a traced replay that splits the same requests into the time
// each layer takes. See README.md for the workloads and the metrics.
//
//	e2ebench --workload cold-mixed --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// setupRounds is how many times a run sets up anew; setup_s is
// the median round.
const setupRounds = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "cold-mixed", "traffic mix: cold-mixed, hot-repeat, capped-batch or forest-trace")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same requests")
	fs.IntVar(&o.seconds, "seconds", 20, "length of each timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 adds the traced phase and the in-process replay, and reports per-layer metrics")
	fs.StringVar(&o.spans, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	res, err := benchmark(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setUp generates the inputs, starts a server and warms it up, setupRounds
// times, keeping the last server. It returns the median round time.
func setUp(o options) (*input, *server, float64, error) {
	var rounds []float64
	var in *input
	var srv *server
	for k := 0; k < setupRounds; k++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, nil, 0, err
			}
			if err := in.arena.release(); err != nil {
				return nil, nil, 0, err
			}
			in, srv = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if in, err = generate(o.workload, o.seed); err != nil {
			return nil, nil, 0, err
		}
		if srv, err = startServer(); err != nil {
			in.arena.release()
			return nil, nil, 0, err
		}
		if err := warmUp(srv, in.warm); err != nil {
			srv.close()
			in.arena.release()
			return nil, nil, 0, err
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	return in, srv, median(rounds), nil
}

// warmUp sends the warm-up requests. A wrong answer or a failed exchange
// before timing starts makes the run meaningless; lost batch lines do not,
// since the timed phase counts them.
func warmUp(srv *server, warm []request) error {
	ph := drive(srv.url, warm, time.Hour, false)
	v := check(warm, ph.outcomes)
	if v.wrong > 0 || v.byClass[failTransport] > 0 || v.byClass[failStatus] > 0 {
		return fmt.Errorf("warm-up: %d of %d trees failed: %v", v.failed, v.attempted, v.examples)
	}
	return nil
}

// timed runs one closed-loop phase with the process CPU, allocation and
// /metrics counters read around it.
func timed(srv *server, reqs []request, o options, traced bool) (phase, serverCounters, error) {
	runtime.GC()
	before, err := scrapeMetrics(srv.url)
	if err != nil {
		return phase{}, serverCounters{}, err
	}
	ref := newRefTask()
	r0, err := ref.measure()
	if err != nil {
		return phase{}, serverCounters{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	ph := drive(srv.url, reqs, time.Duration(o.seconds)*time.Second, traced)
	ph.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	r1, err := ref.measure()
	if err != nil {
		return phase{}, serverCounters{}, err
	}
	ph.speedup = float64(2*refNominal) / float64(r0+r1)
	ph.alloc, ph.numGC = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	after, err := scrapeMetrics(srv.url)
	if err != nil {
		return phase{}, serverCounters{}, err
	}
	if len(ph.outcomes) == 0 {
		return phase{}, serverCounters{}, errors.New("the timed phase sent no request")
	}
	return ph, readCounters(before, after), nil
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd holds the end-to-end metrics of one phase.
type endToEnd struct {
	requests                int
	p50, tail               float64 // ms
	tailQ                   float64
	windowTput              []float64
	speedup                 float64
	treesPerS, cpuMsPerTree float64
	errorRate               float64
	makespanRatio, memRatio float64
	stretch                 float64
	answered                int
	elapsed                 time.Duration
}

// windows is the number of equal time windows a timed phase is split
// into. Latency percentiles and throughput are computed per window and
// reported as the mean of the two middle windows, so a burst of load from
// outside the benchmark that spoils one window does not move the figure.
const windows = 4

func measure(ph phase, v *verdict, tailQ float64) endToEnd {
	width := ph.elapsed / windows
	lat := make([][]float64, windows)
	trees := make([]int, windows)
	for i, o := range ph.outcomes {
		k := min(int((o.start+o.latency)/width), windows-1)
		lat[k] = append(lat[k], ms(o.latency))
		trees[k] += v.okTrees[i]
	}
	var p50s, tails, tputs []float64
	for k := range lat {
		p50s = append(p50s, percentile(lat[k], 0.5))
		tails = append(tails, percentile(lat[k], tailQ))
		tputs = append(tputs, float64(trees[k])/width.Seconds())
	}
	answered := v.attempted - v.failed
	return endToEnd{
		requests:      len(ph.outcomes),
		p50:           median(p50s),
		tail:          median(tails),
		tailQ:         tailQ,
		treesPerS:     median(tputs),
		windowTput:    tputs,
		speedup:       ph.speedup,
		cpuMsPerTree:  ratio(ms(ph.cpu), float64(answered)),
		errorRate:     v.errorRate(),
		makespanRatio: geomean(v.makespanRatios),
		memRatio:      geomean(v.memoryRatios),
		stretch:       ratio(v.stretchSum, float64(v.stretchJobs)),
		answered:      answered,
		elapsed:       ph.elapsed,
	}
}

func benchmark(o options, stdout io.Writer) (*result, error) {
	k, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "e2ebench workload=%s seed=%d seconds=%d trace=%t clients=%d GOMAXPROCS=%d\n",
		o.workload, o.seed, o.seconds, o.trace, clients, runtime.GOMAXPROCS(0))
	in, srv, setupS, err := setUp(o)
	if err != nil {
		return nil, err
	}
	// The server goes first: no request may still read the arena when it
	// is unmapped.
	defer func() {
		if srv != nil {
			srv.close()
		}
		in.arena.release()
	}()
	fmt.Fprint(stdout, describe(in))

	ph, counters, err := timed(srv, in.reqs, o, false)
	if err != nil {
		return nil, err
	}
	v := check(in.reqs, ph.outcomes)
	e := measure(ph, v, workloads[k].tail)
	reportPhase(stdout, "untraced", e, v)

	// Live heap at the end of the timed phase, with the benchmark's answers
	// and request records released (the encoded trees live outside the
	// heap): what remains is mostly the server's two caches. A traced run
	// still needs its requests, so it measures with them held.
	if !o.trace {
		in.reqs, ph.outcomes, v.answers = nil, nil, nil
	}
	runtime.GC()
	runtime.GC()
	var msHeap runtime.MemStats
	runtime.ReadMemStats(&msHeap)
	heapMB := float64(msHeap.HeapAlloc) / (1 << 20)

	res := &result{Correct: v.wrong == 0, Attempted: v.attempted, Failed: v.failed}
	// Timings are scaled to the reference machine speed (calib.go).
	sp := e.speedup
	e2e := map[string]metric{
		"latency_p50_ms":  {e.p50 * sp, "ms"},
		"latency_tail_ms": {e.tail * sp, "ms"},
		"trees_per_s":     {e.treesPerS / sp, "1/s"},
		"cpu_ms_per_tree": {e.cpuMsPerTree * sp, "ms"},
		"makespan_ratio":  {e.makespanRatio, "ratio"},
		"memory_ratio":    {e.memRatio, "ratio"},
		"heap_live_mb":    {heapMB, "MB"},
		"setup_s":         {setupS * sp, "s"},
	}
	fmt.Fprintf(stdout, "end-to-end (untraced phase; timings scaled by the machine speed-up %.4g, raw: p50 %.4g ms, tail %.4g ms, %.4g trees/s, %.4g CPU ms/tree, set-up %.4g s):\n",
		sp, e.p50, e.tail, e.treesPerS, e.cpuMsPerTree, setupS)
	printMetrics(stdout, e2e, endToEndOrder)
	fmt.Fprintf(stdout, "  %-16s %.6g (reported in failed/attempted)\n", "error_rate", e.errorRate)
	if v.stretchJobs > 0 {
		fmt.Fprintf(stdout, "  %-16s %.6g (per-layer forest.stretch_mean)\n", "stretch_mean", e.stretch)
	}
	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}

	// The traced phase replays the same requests on a fresh server, so
	// cold-mixed stays cold.
	if err := srv.close(); err != nil {
		return nil, err
	}
	srv = nil
	layers, err := tracedRun(o, in, e, ph, counters, stdout)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	return res, nil
}

// endToEndOrder is the print order of the end-to-end metrics.
var endToEndOrder = []string{"latency_p50_ms", "latency_tail_ms", "trees_per_s", "cpu_ms_per_tree",
	"makespan_ratio", "memory_ratio", "heap_live_mb", "setup_s"}

func printMetrics(w io.Writer, m map[string]metric, order []string) {
	for _, name := range order {
		if x, ok := m[name]; ok {
			fmt.Fprintf(w, "  %-34s %12.6g %s\n", name, x.Value, x.Unit)
		}
	}
}

func reportPhase(w io.Writer, name string, e endToEnd, v *verdict) {
	perWindow := e.requests / windows
	beyond := perWindow - int(math.Ceil(e.tailQ*float64(perWindow)))
	fmt.Fprintf(w, "%s phase: %d requests in %.3f s; trees attempted %d, answered correctly %d, failed %d (%s), error_rate %.4g\n",
		name, e.requests, e.elapsed.Seconds(), v.attempted, e.answered, v.failed, v.summarizeFailures(), e.errorRate)
	fmt.Fprintf(w, "  middle 2 of %d windows of about %d requests: p50 %.4g ms, tail p%g %.4g ms (about %d samples beyond it per window), %.4g trees/s (windows %.4g)\n",
		windows, perWindow, e.p50, 100*e.tailQ, e.tail, beyond, e.treesPerS, e.windowTput)
	for _, ex := range v.examples {
		fmt.Fprintf(w, "  failure: %s\n", ex)
	}
}
