package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// runResult runs the benchmark and decodes its last output line.
func runResult(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(append(args, "--spans", t.TempDir()), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("result correct %t, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// sameMetrics reports the differences between the metric names and units
// of a result and a list from BENCHMARK.json.
func sameMetrics(t *testing.T, kind string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json lists %d", kind, len(got), len(want))
	}
	for _, w := range want {
		if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
			t.Errorf("%s: %s printed as %+v (present %t), BENCHMARK.json says unit %q", kind, w.Name, m, ok, w.Unit)
		}
	}
}

// Short runs end to end: the last output line is the result object, its
// metrics are exactly BENCHMARK.json's lists, and the traced replay
// reproduced every answer it compared.
func TestRunOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	args := []string{"--workload", "forest-trace", "--seed", "3", "--seconds", "1"}
	sameMetrics(t, "end_to_end", runResult(t, append(args, "--trace", "0")...).Metrics, spec.EndToEnd)
	res := runResult(t, append(args, "--trace", "1")...)
	sameMetrics(t, "per_layer", res.Metrics, spec.PerLayer)
	if res.Metrics["replay.compared"].Value == 0 || res.Metrics["replay.mismatches"].Value != 0 {
		t.Errorf("replay compared %g answers with %g mismatches", res.Metrics["replay.compared"].Value, res.Metrics["replay.mismatches"].Value)
	}
	if res.Metrics["forest.run_ms"].Value <= 0 {
		t.Error("forest.run_ms not measured on forest-trace")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload", "--seconds", "1"},
		{"--seconds", "0"},
		{"--trace", "2"},
		{"--bogus"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), `"metrics"`) {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
