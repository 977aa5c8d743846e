package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"treesched/internal/machine"
	"treesched/internal/obs"
	"treesched/internal/resilience"
)

// The obs rows microbenchmark the observability record paths the service
// puts on every request — histogram observe, counter increments, labeled
// child lookup, the span lifecycle — plus the /metrics exposition write.
// They ride in BENCH_core.json next to the scheduler rows (family "obs"),
// so the same CI gate ratchets them; `-suite obs` measures and gates just
// these rows for a fast local check.

// obsBench is one observability micro-row.
type obsBench struct {
	name string
	run  func()
}

// obsBenches builds the observability benches over a private registry
// shaped like the service's: a 16-bucket latency histogram, plain and
// labeled counters, and a trace drawn from the shared span pool per op.
func obsBenches() []obsBench {
	h := obs.NewHistogram("bench_latency", "", 1e-9, obs.ExpBuckets(100_000, 4, 16))
	hx := obs.NewHistogram("bench_latency_ex", "", 1e-9, obs.ExpBuckets(100_000, 4, 16))
	hx.EnableExemplars(obs.DefaultExemplarWindow)
	c := obs.NewCounter("bench_counter", "")
	vec := obs.NewCounterVec("bench_vec", "", "k", false)
	child := vec.With("warm")
	reg := obs.NewRegistry()
	reg.Register(h, c, vec)
	flight := obs.NewFlightRecorder(256, 0, 1)
	ftr := obs.AcquireTrace()
	fid := ftr.Start("stage", obs.RootSpan)
	ftr.End(fid)
	var fseq int
	var tick int64
	adm := resilience.NewAdmission(resilience.AdmissionConfig{
		Capacity: 64, Target: 100 * time.Millisecond,
	})
	brk := resilience.NewBreaker(resilience.BreakerConfig{Failures: 5, Cooldown: 10 * time.Second})
	return []obsBench{
		{"Obs/HistogramObserve", func() {
			tick += 1_000_003
			h.Observe(tick % 100_000_000)
		}},
		{"Obs/ExemplarObserve", func() {
			tick += 1_000_003
			hx.ObserveExemplar(tick%100_000_000, "r1")
		}},
		{"Obs/CounterInc", func() { c.Inc() }},
		{"Obs/CounterVecWith", func() { vec.With("warm").Inc() }},
		{"Obs/CounterChildAdd", func() { child.Add(2) }},
		{"Obs/SpanLifecycle", func() {
			tr := obs.AcquireTrace()
			id := tr.Start("stage", obs.RootSpan)
			tr.End(id)
			tr.Release()
		}},
		{"Obs/FlightRecord", func() {
			// Every record is kept (sampleEvery 1), so the bench covers the
			// slot-claim + span-copy path, rotating request ids from a fixed
			// set to stay allocation-free.
			flight.Record(obs.FlightInfo{
				RequestID: flightRIDs[fseq&3], Endpoint: "/bench", Status: 200,
			}, ftr)
			fseq++
		}},
		{"Obs/Exposition", func() { reg.WriteText(io.Discard) }},
		{"Obs/AdmissionDecision", func() {
			// The full per-request admission round trip: decide, then release
			// the window slot. Sits on every request the daemon accepts, so
			// it must stay allocation-free like the other record paths.
			tick += 1_000_003
			if adm.Admit(tick, resilience.PriorityHigh) == resilience.Admitted {
				adm.Done()
			}
		}},
		{"Obs/BreakerCheck", func() {
			// The closed-breaker fast path checked before every Exact run.
			tick += 1_000_003
			brk.Allow(tick)
		}},
	}
}

// flightRIDs are the pre-built request ids Obs/FlightRecord rotates
// through (building one per op would allocate).
var flightRIDs = [4]string{"r1", "r2", "r3", "r4"}

// measureObsRows runs every obs bench under the budget and returns the
// report rows (family "obs"; Nodes 0 — these are not tree-sized).
func measureObsRows(budget time.Duration) []CoreEntry {
	var out []CoreEntry
	for _, b := range obsBenches() {
		nsOp, allocsOp := measure(b.run, budget)
		e := CoreEntry{Bench: b.name, Family: "obs", NsOp: nsOp, AllocsOp: allocsOp}
		if nsOp > 0 {
			e.OpsPerSec = 1e9 / nsOp
		}
		out = append(out, e)
	}
	return out
}

// obsMain is `-suite obs`: just the observability rows, gated against the
// Obs/* keys of a core baseline (normally BENCH_core.json — the rows live
// there, so there is no separate BENCH_obs.json to drift out of date).
func obsMain(scale string, seed int64, machSpec, out, baseline string, maxratio float64) {
	var budget time.Duration
	switch scale {
	case "quick":
		budget = 25 * time.Millisecond
	case "standard":
		budget = 100 * time.Millisecond
	default:
		fatal(fmt.Errorf("unknown scale %q (quick or standard)", scale))
	}
	het, err := machine.ParseSpec(machSpec)
	if err != nil {
		fatal(err)
	}
	rep := &CoreReport{
		Scale:             scale,
		Seed:              seed,
		Processors:        coreProcs,
		Machine:           het.Spec(),
		Entries:           measureObsRows(budget),
		MeanNsByBench:     make(map[string]float64),
		MeanAllocsByBench: make(map[string]float64),
	}
	fillCoreMeans(rep)
	printCoreReport(rep)
	if out != "" {
		writeReport(rep, out)
	}
	if baseline != "" {
		if err := coreGate(rep, baseline, ownsObs, maxratio); err != nil {
			fmt.Fprintln(os.Stderr, "treebench: REGRESSION:", err)
			os.Exit(1)
		}
		fmt.Printf("regression gate vs %s passed (maxratio %g)\n", baseline, maxratio)
	}
}
