package main

import (
	"encoding/json"
	"math/rand"
	"slices"
	"time"
)

// The benchmark's reference machine shares its cores with other tenants,
// and its speed drifts by up to 2× over minutes: the same run can take
// half the CPU time per tree an hour later. The end-to-end timings are
// therefore scaled by the speed of a reference task measured in the same
// run, next to the timed phase. The task uses only the standard library
// (JSON, maps, sorting: the allocation- and memory-bound mix that the
// server's own work has), so a change to this repository cannot move it,
// and it slows and speeds up with the machine as the server does.

// refNominal is the reference task's time on the reference machine (2
// shared cores) in its slow state; at that speed the scaled figures equal
// the raw ones.
const refNominal = 17 * time.Millisecond

// refDoc is the reference task's JSON document.
type refDoc struct {
	Parent []int     `json:"parent"`
	W      []float64 `json:"w"`
	F      []int64   `json:"f"`
}

// refTask is the reference task's fixed input.
type refTask struct {
	doc    refDoc
	floats []float64
}

func newRefTask() *refTask {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 13
	r := &refTask{doc: refDoc{Parent: make([]int, n), W: make([]float64, n), F: make([]int64, n)},
		floats: make([]float64, 1<<15)}
	for i := 0; i < n; i++ {
		r.doc.Parent[i], r.doc.W[i], r.doc.F[i] = rng.Intn(i+1)-1, 1+9*rng.Float64(), rng.Int63n(20)
	}
	for i := range r.floats {
		r.floats[i] = rng.Float64()
	}
	return r
}

// run does the task once: encode and decode the document, fill a map and
// sort a copy of the floats.
func (r *refTask) run() error {
	b, err := json.Marshal(&r.doc)
	if err != nil {
		return err
	}
	var back refDoc
	if err := json.Unmarshal(b, &back); err != nil {
		return err
	}
	m := make(map[int]float64)
	for i, w := range back.W {
		m[back.Parent[i]*7919+i] = w
	}
	slices.Sort(append([]float64(nil), r.floats...))
	return nil
}

// measure returns the fastest of five runs: interference only ever slows
// a run down, so the minimum is the machine's speed at that moment.
func (r *refTask) measure() (time.Duration, error) {
	best := time.Duration(1<<63 - 1)
	for k := 0; k < 5; k++ {
		t0 := time.Now()
		if err := r.run(); err != nil {
			return 0, err
		}
		best = min(best, time.Since(t0))
	}
	return best, nil
}
