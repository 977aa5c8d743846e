package sched_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"treesched/internal/dataset"
	"treesched/internal/sched"
	"treesched/internal/tree"
)

// -update regenerates testdata/golden_quick.json from the current
// implementation. The checked-in file was produced by the pre-refactor
// (PR 3) scheduling core; the test therefore proves that the
// zero-allocation rewrite emits byte-identical schedules.
var updateGolden = flag.Bool("update", false, "rewrite golden schedule hashes")

// goldenConfigs is every heuristic the package can run, including the
// capped ones (factor 2 × M_seq).
func goldenConfigs() []struct {
	name string
	opts sched.Options
} {
	mk := func(id sched.HeuristicID, p int, factor float64) struct {
		name string
		opts sched.Options
	} {
		return struct {
			name string
			opts sched.Options
		}{
			name: fmt.Sprintf("%s/p%d", id, p),
			opts: sched.Options{Processors: p, Heuristics: []sched.HeuristicID{id}, MemCapFactor: factor},
		}
	}
	var cfgs []struct {
		name string
		opts sched.Options
	}
	ids := []sched.HeuristicID{
		sched.IDParSubtrees, sched.IDParSubtreesOptim, sched.IDParInnerFirst,
		sched.IDParDeepestFirst, sched.IDParInnerFirstArbitrary,
		sched.IDSequential, sched.IDOptimalSequential,
		sched.IDMemCapped, sched.IDMemCappedBooking,
	}
	for _, p := range []int{2, 8} {
		for _, id := range ids {
			cfgs = append(cfgs, mk(id, p, 2))
		}
	}
	return cfgs
}

// scheduleHash digests a schedule byte-exactly: every start time's IEEE
// bits, every processor assignment, P, and the simulated peak memory.
func scheduleHash(t *tree.Tree, s *sched.Schedule) string {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(s.P))
	h.Write(buf[:])
	for i := range s.Start {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s.Start[i]))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(s.Proc[i]))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(sched.PeakMemory(t, s)))
	h.Write(buf[:])
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenSchedulesQuickDataset locks every heuristic's schedule on the
// quick dataset to checked-in hashes: refactors of the scheduling core
// must keep schedules byte-identical (start-time bits, processors, peak).
func TestGoldenSchedulesQuickDataset(t *testing.T) {
	insts, err := dataset.Collection(dataset.Quick, 42)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, inst := range insts {
		for _, cfg := range goldenConfigs() {
			hs, _, err := cfg.opts.SelectPre(sched.NewPrecompute(inst.Tree))
			if err != nil {
				t.Fatalf("%s %s: %v", inst.Name, cfg.name, err)
			}
			s, err := hs[0].Run(inst.Tree, cfg.opts.Processors)
			if err != nil {
				t.Fatalf("%s %s: %v", inst.Name, cfg.name, err)
			}
			if err := s.Validate(inst.Tree); err != nil {
				t.Fatalf("%s %s: invalid schedule: %v", inst.Name, cfg.name, err)
			}
			got[inst.Name+"/"+cfg.name] = scheduleHash(inst.Tree, s)
		}
	}

	path := filepath.Join("testdata", "golden_quick.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(got), path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to generate): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d entries, computed %d", len(want), len(got))
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := 0
	for _, k := range keys {
		if want[k] != got[k] {
			bad++
			if bad <= 10 {
				t.Errorf("%s: schedule changed (golden %s, got %s)", k, want[k], got[k])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more golden mismatches", bad-10)
	}
}
