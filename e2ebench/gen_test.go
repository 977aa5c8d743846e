package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"testing"

	"treesched/internal/tree"
)

// appendTreeText must write exactly what (*tree.Tree).Encode writes, as a
// JSON string literal.
func TestAppendTreeTextMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lib, err := newAssemblyLib(rng)
	if err != nil {
		t.Fatal(err)
	}
	trees := []*tree.Tree{lib.draw(rng, 500), lib[0], tree.MustNew([]int{-1}, []float64{1e-7}, []int64{0}, []int64{3})}
	for _, fam := range randomFamilies {
		trees = append(trees, familyTree(rng, fam, 1+rng.Intn(300)))
	}
	for _, tr := range trees {
		var want bytes.Buffer
		if err := tr.Encode(&want); err != nil {
			t.Fatal(err)
		}
		var got string
		if err := json.Unmarshal(appendTreeText(nil, tr), &got); err != nil {
			t.Fatal(err)
		}
		if got != want.String() {
			t.Fatalf("appendTreeText differs from Encode on a %d-node tree", tr.Len())
		}
	}
}

// fingerprint is what the determinism test keeps of one generated input:
// a digest per request body, and its composition.
type fingerprint struct {
	digests     []string
	paths       []string
	warm        int
	items       []int
	selections  map[string]int
	formats     map[string]int
	totalTrees  int
	describeOut string
}

func fingerprintOf(t *testing.T, workload string, seed int64) fingerprint {
	t.Helper()
	in, err := generate(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer in.arena.release()
	f := fingerprint{warm: len(in.warm), selections: map[string]int{}, formats: map[string]int{}, describeOut: describe(in)}
	for _, r := range in.reqs {
		sum := sha256.Sum256(r.joined())
		f.digests = append(f.digests, hex.EncodeToString(sum[:]))
		f.paths = append(f.paths, r.path)
		f.items = append(f.items, len(r.items))
		for _, it := range r.items {
			f.selections[it.selection]++
			f.formats[it.format]++
			f.totalTrees++
		}
	}
	return f
}

// The same seed gives byte-identical request bodies; another seed gives
// different bodies with the same composition.
func TestInputsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every workload three times")
	}
	for _, wl := range workloads {
		w := wl.name
		a, b, c := fingerprintOf(t, w, 5), fingerprintOf(t, w, 5), fingerprintOf(t, w, 6)
		if !slices.Equal(a.digests, b.digests) || !slices.Equal(a.paths, b.paths) || a.describeOut != b.describeOut {
			t.Errorf("%s: seed 5 generated different requests twice", w)
		}
		same := 0
		for i := range a.digests {
			if a.digests[i] == c.digests[i] {
				same++
			}
		}
		if same > 0 {
			t.Errorf("%s: seeds 5 and 6 share %d of %d request bodies", w, same, len(a.digests))
		}
		if len(a.digests) != len(c.digests) || a.warm != c.warm || !slices.Equal(a.items, c.items) {
			t.Errorf("%s: seeds 5 and 6 differ in request count, warm-up or trees per request", w)
		}
		for _, mix := range []struct {
			name string
			a, c map[string]int
		}{{"selection", a.selections, c.selections}, {"format", a.formats, c.formats}} {
			for k := range mix.a {
				pa, pc := float64(mix.a[k])/float64(a.totalTrees), float64(mix.c[k])/float64(c.totalTrees)
				if math.Abs(pa-pc) > 0.03 {
					t.Errorf("%s: %s share of %q is %.3f for seed 5 and %.3f for seed 6", w, mix.name, k, pa, pc)
				}
			}
		}
	}
}
