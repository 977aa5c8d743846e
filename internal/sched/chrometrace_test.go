package sched_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treesched/internal/dataset"
	"treesched/internal/machine"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// chromeTraceFor schedules the first quick-dataset instance with
// ParSubtrees on 4 processors and renders it — the fixture the golden
// file pins byte-stably.
func chromeTraceFor(t *testing.T) (*tree.Tree, []byte) {
	t.Helper()
	insts, err := dataset.Collection(dataset.Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := insts[0].Tree
	opts := sched.Options{Processors: 4, Heuristics: []sched.HeuristicID{sched.IDParSubtrees}}
	hs, _, err := opts.SelectPre(sched.NewPrecompute(tr))
	if err != nil {
		t.Fatal(err)
	}
	s, err := hs[0].Run(tr, opts.Processors)
	if err != nil {
		t.Fatal(err)
	}
	cap := 2 * sched.NewPrecompute(tr).MSeq()
	var buf bytes.Buffer
	if err := sched.WriteChromeTrace(&buf, tr, s, sched.ChromeTraceOptions{
		Name:   "golden",
		MemCap: cap,
	}); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// TestChromeTraceGolden pins WriteChromeTrace byte-stably against the
// checked-in golden file (regenerate with -update).
func TestChromeTraceGolden(t *testing.T) {
	_, got := chromeTraceFor(t)
	path := filepath.Join("testdata", "golden_chrome_trace.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", len(got), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chrome trace drifted from golden (%d vs %d bytes); run with -update if intended",
			len(got), len(want))
	}
}

// TestChromeTraceShape decodes the emitted JSON and checks the event
// stream semantically: every task appears once on its processor's track,
// the memory counter is present, and metadata names every track.
func TestChromeTraceShape(t *testing.T) {
	tr, raw := chromeTraceFor(t)
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Name string          `json:"name"`
			TS   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	var tasks, counters, metas int
	seen := make(map[string]bool)
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			tasks++
			if seen[e.Name] {
				t.Errorf("task %s emitted twice", e.Name)
			}
			seen[e.Name] = true
			if e.Dur < 0 || e.TS < 0 {
				t.Errorf("task %s has negative ts/dur", e.Name)
			}
		case "C":
			counters++
			if !strings.Contains(string(e.Args), `"resident"`) || !strings.Contains(string(e.Args), `"cap"`) {
				t.Errorf("counter args missing resident/cap: %s", e.Args)
			}
		case "M":
			metas++
		default:
			t.Errorf("unexpected event phase %q", e.Ph)
		}
	}
	if tasks != tr.Len() {
		t.Errorf("trace has %d task events, tree has %d nodes", tasks, tr.Len())
	}
	if counters == 0 {
		t.Error("trace has no memory counter samples")
	}
	if metas != 1+4 { // process_name + one thread_name per processor
		t.Errorf("trace has %d metadata events, want 5", metas)
	}
}

// TestChromeTraceHeterogeneous checks speed-labeled tracks and that
// mismatched schedule/tree sizes error instead of emitting garbage.
func TestChromeTraceHeterogeneous(t *testing.T) {
	insts, err := dataset.Collection(dataset.Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	tr := insts[0].Tree
	m, err := machine.ParseSpec("2x1+2x0.5")
	if err != nil {
		t.Fatal(err)
	}
	opts := sched.Options{Processors: m.P(), Machine: m,
		Heuristics: []sched.HeuristicID{sched.IDParSubtrees}}
	hs, _, err := opts.SelectPre(sched.NewPrecompute(tr))
	if err != nil {
		t.Fatal(err)
	}
	s, err := hs[0].RunOn(tr, m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sched.WriteChromeTrace(&buf, tr, s, sched.ChromeTraceOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `(speed 0.5)`) {
		t.Error("heterogeneous trace must label tracks with speeds")
	}

	bad := &sched.Schedule{P: 2, Start: []float64{0}, Proc: []int{0}}
	if err := sched.WriteChromeTrace(&buf, tr, bad, sched.ChromeTraceOptions{}); err == nil {
		t.Error("mismatched schedule must error")
	}
}
