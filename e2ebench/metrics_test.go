package main

import (
	"os"
	"strings"
	"testing"
)

// testdata/metrics.txt is a /metrics page captured from treeschedd after
// two identical /v1/schedule requests.
func TestParseExpositionCapturedPage(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"treeschedd_cache_hits_total":                                                             1,
		"treeschedd_cache_hit_ratio":                                                              0.5,
		`treeschedd_requests_total{endpoint="/v1/schedule"}`:                                      2,
		`treeschedd_request_duration_seconds_count{endpoint="/v1/schedule"}`:                      2,
		`treeschedd_admission_total{decision="admitted"}`:                                         2,
		`treeschedd_build_info{version="v0.0.0-20261016015918-bb9f1393ab1e+dirty",go="go1.24.0"}`: 1,
		"treeschedd_queue_wait_seconds_sum":                                                       1.3109000000000001e-05,
	} {
		if got, ok := e[series]; !ok || got != want {
			t.Errorf("%s = %g (present %t), want %g", series, got, ok, want)
		}
	}
	if got := e.family("treeschedd_requests_total"); got != 2 {
		t.Errorf("requests_total family = %g, want 2", got)
	}
	if got := e.family("treeschedd_request_duration_seconds_sum"); got != 0.0009765090000000001 {
		t.Errorf("request duration sum = %g", got)
	}
	c := readCounters(exposition{}, e)
	if c.requests != 2 || c.hits != 1 || c.misses != 1 || c.pcMisses != 1 || c.shed != 0 || c.pcBytes != 1552 {
		t.Errorf("counters from the captured page: %+v", c)
	}
}

func TestParseExpositionEdgeCases(t *testing.T) {
	page := strings.Join([]string{
		"# HELP x a help line",
		`x{label="a b}c",other="q\"uote"} 3 1700000000`,
		"y 1.5e3",
		`z_bucket{le="+Inf"} 4 # {trace_id="r1"} 0.2`,
		"",
	}, "\n")
	e, err := parseExposition(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if e[`x{label="a b}c",other="q\"uote"}`] != 3 || e["y"] != 1500 || e[`z_bucket{le="+Inf"}`] != 4 {
		t.Errorf("parsed %v", e)
	}
	for _, bad := range []string{"novalue", `x{unterminated="1 2`, "x notanumber"} {
		if _, err := parseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
	d := delta(exposition{"a": 1, "b": 2}, exposition{"a": 4, "c": 1})
	if d["a"] != 3 || d["c"] != 1 || len(d) != 2 {
		t.Errorf("delta = %v", d)
	}
}
