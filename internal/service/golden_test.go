package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"treesched/internal/sched"
	"treesched/internal/tree"
)

// -update rewrites testdata/golden_responses.json from the current code.
// The checked-in file pins the wire bytes of a fixed request grid, so a
// refactor of the scheduling path must answer every request identically.
var updateGoldenResponses = flag.Bool("update", false, "rewrite testdata/golden_responses.json")

const goldenResponsesPath = "testdata/golden_responses.json"

// goldenRequest is one cell of the golden grid: an endpoint path and a
// request body, named by its grid coordinates.
type goldenRequest struct {
	name string
	path string
	body []byte
}

// goldenGrid is every generator family (40 to 2,000 nodes) × a uniform and
// a heterogeneous machine × five heuristic selections × the plain, timeline
// and portfolio endpoints.
func goldenGrid(tb testing.TB) []goldenRequest {
	tb.Helper()
	rng := rand.New(rand.NewSource(1515))
	ws := tree.WeightSpec{WMin: 1, WMax: 10, NMin: 0, NMax: 5, FMin: 1, FMax: 20}
	trees := []struct {
		name string
		t    *tree.Tree
	}{
		{"attachment40", tree.RandomAttachment(rng, 40, ws)},
		{"prufer150", tree.RandomPrufer(rng, 150, ws)},
		{"binary400", tree.RandomBinary(rng, 400, ws)},
		{"chain100", tree.Chain(rng, 100, ws)},
		{"fork300", tree.Fork(rng, 300, ws)},
		{"caterpillar2000", tree.Caterpillar(rng, 500, 3, ws)},
	}
	machines := []struct {
		name string
		set  func(*Request)
	}{
		{"p4", func(r *Request) { r.Processors = 4 }},
		{"het", func(r *Request) { r.Machine = "2x1.0+2x0.5" }},
	}
	selections := []struct {
		name   string
		ids    []sched.HeuristicID
		factor float64
	}{
		{"default", nil, 0},
		{"single", []sched.HeuristicID{sched.IDParInnerFirst}, 0},
		{"pair", []sched.HeuristicID{sched.IDParDeepestFirst, sched.IDParSubtrees}, 0},
		{"capped", []sched.HeuristicID{sched.IDMemCapped, sched.IDMemCappedBooking}, 1.5},
		{"baselines", []sched.HeuristicID{sched.IDSequential, sched.IDOptimalSequential,
			sched.IDParInnerFirstArbitrary, sched.IDParSubtreesOptim}, 0},
	}
	paths := []string{"/v1/schedule", "/v1/schedule?timeline=1", "/v1/portfolio"}
	var grid []goldenRequest
	for _, tc := range trees {
		for _, m := range machines {
			for _, sel := range selections {
				req := Request{Tree: tc.t, Heuristics: sel.ids, MemCapFactor: sel.factor}
				m.set(&req)
				body := mustJSON(tb, req)
				for _, path := range paths {
					grid = append(grid, goldenRequest{
						name: fmt.Sprintf("%s/%s/%s%s", tc.name, m.name, sel.name, path),
						path: path,
						body: body,
					})
				}
			}
		}
	}
	return grid
}

var goldenRequestID = regexp.MustCompile(`"request_id":"[^"]*",?`)

// answerGoldenGrid answers every grid request on s cold, then from the
// response cache (timeline requests bypass the cache and recompute), and
// returns the SHA-256 of each response body with request_id removed.
// Three more passes must answer the same bytes, each through the alias
// cache, which knows the tree's bytes from the second sighting on: warm
// (the response cache answers, or the Precompute cache for a timeline),
// after purging the response cache (a Precompute hit reschedules), and
// after purging the response and Precompute caches too (the tree is
// decoded from the request bytes after all).
func answerGoldenGrid(tb testing.TB, s *Server) map[string]string {
	tb.Helper()
	h := s.Handler()
	got := make(map[string]string)
	grid := goldenGrid(tb)
	for _, g := range grid {
		answer := func(pass string) (digest, precompute string) {
			rec := post(tb, h, g.path, g.body)
			if rec.Code != http.StatusOK {
				tb.Fatalf("%s (%s): status %d: %s", g.name, pass, rec.Code, rec.Body.String())
			}
			sum := sha256.Sum256(goldenRequestID.ReplaceAll(rec.Body.Bytes(), nil))
			return hex.EncodeToString(sum[:]), rec.Header().Get("X-Precompute-Cache")
		}
		cold, _ := answer("cold")
		repeat, _ := answer("repeat")
		got[g.name+"/cold"], got[g.name+"/repeat"] = cold, repeat
		warmPrecompute := "" // a response-cache hit schedules nothing
		if g.path == "/v1/schedule?timeline=1" {
			warmPrecompute = pcHit
		}
		for _, pass := range []struct {
			name       string
			purge      func()
			want       string
			precompute string // the X-Precompute-Cache header the pass must show
		}{
			{"warm", func() {}, repeat, warmPrecompute},
			{"response cache purged", func() { s.cache.Purge() }, cold, pcHit},
			{"both caches purged", func() { s.cache.Purge(); s.pcache.Purge() }, cold, pcMiss},
		} {
			pass.purge()
			digest, precompute := answer(pass.name)
			if digest != pass.want {
				tb.Errorf("%s (%s): response digest %s, want %s", g.name, pass.name, digest, pass.want)
			}
			if precompute != pass.precompute {
				tb.Errorf("%s (%s): X-Precompute-Cache %q, want %q", g.name, pass.name, precompute, pass.precompute)
			}
		}
	}
	// Each tree's bytes miss the alias cache once, on its first request;
	// every other answer above skipped decode and hash.
	trees := make(map[string]bool)
	for _, g := range grid {
		trees[strings.SplitN(g.name, "/", 2)[0]] = true
	}
	wantHits, wantMisses := int64(5*len(grid)-len(trees)), int64(len(trees))
	if st := s.aliases.Stats(); st.Hits != wantHits || st.Misses != wantMisses {
		tb.Errorf("alias cache: %d hits, %d misses; want %d, %d", st.Hits, st.Misses, wantHits, wantMisses)
	}
	return got
}

// TestGoldenResponses pins the wire bytes of the request grid: plain,
// timeline and portfolio answers on uniform and heterogeneous machines,
// cold and cached, must match the checked-in SHA-256 digests, and so must
// every answer through the alias cache. The grid is answered a second
// time with every race slot held, so one-lane and many-lane races are
// pinned to the same bytes.
func TestGoldenResponses(t *testing.T) {
	if testing.Short() {
		t.Skip("golden response grid skipped in -short mode")
	}
	s := New(Config{Workers: 2})
	defer s.Close()
	got := answerGoldenGrid(t, s)
	if *updateGoldenResponses {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenResponsesPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenResponsesPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d response digests to %s", len(got), goldenResponsesPath)
		return
	}
	b, err := os.ReadFile(goldenResponsesPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	compare := func(label string, got map[string]string) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d responses, golden file has %d", label, len(got), len(want))
		}
		for name, sum := range want {
			if got[name] != sum {
				t.Errorf("%s: %s: response digest %s, golden %s", label, name, got[name], sum)
			}
		}
	}
	compare("free race slots", got)

	held := New(Config{Workers: 2})
	defer held.Close()
	for len(held.raceSlots) < cap(held.raceSlots) {
		held.raceSlots <- struct{}{}
	}
	compare("race slots held", answerGoldenGrid(t, held))
	for len(held.raceSlots) > 0 {
		<-held.raceSlots
	}
}
