package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// exposition is one /metrics page in the Prometheus text format: every
// sample keyed by its series, the metric name followed by its label set
// exactly as exposed (`treeschedd_errors_total{kind="shed"}`).
type exposition map[string]float64

// parseExposition reads a Prometheus text-format page. Comment lines are
// skipped; a trailing timestamp or OpenMetrics exemplar is ignored.
func parseExposition(r io.Reader) (exposition, error) {
	out := exposition{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		series, rest, err := splitSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: bad value %q", line, fields[0])
		}
		out[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// splitSeries splits a sample line into its series (name plus label set)
// and the rest of the line. Label values may contain spaces, braces and
// escaped quotes.
func splitSeries(line string) (series, rest string, err error) {
	i := strings.IndexAny(line, "{ \t")
	if i < 0 {
		return "", "", fmt.Errorf("no value in %q", line)
	}
	if line[i] != '{' {
		return line[:i], line[i:], nil
	}
	inQuote := false
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case c == '\\' && inQuote:
			j++
		case c == '"':
			inQuote = !inQuote
		case c == '}' && !inQuote:
			return line[:j+1], line[j+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label set in %q", line)
}

// family sums every series of the named metric, whatever its labels.
func (e exposition) family(name string) float64 {
	sum := 0.0
	for series, v := range e {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta returns after − before for every series of after.
func delta(before, after exposition) exposition {
	out := make(exposition, len(after))
	for series, v := range after {
		out[series] = v - before[series]
	}
	return out
}

// scrapeMetrics fetches and parses the server's /metrics page.
func scrapeMetrics(base string) (exposition, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// serverCounters are the per-layer figures read from a /metrics delta
// over a timed phase.
type serverCounters struct {
	requests, serverSec     float64 // request-duration count and sum, all endpoints
	queueJobs, queueWaitSec float64
	hits, misses            float64 // response cache
	pcHits, pcMisses        float64 // Precompute cache
	pcEvictions, pcBytes    float64
	shed, degraded          float64
	gcPauseSec              float64
}

func readCounters(before, after exposition) serverCounters {
	d := delta(before, after)
	return serverCounters{
		requests:     d.family("treeschedd_request_duration_seconds_count"),
		serverSec:    d.family("treeschedd_request_duration_seconds_sum"),
		queueJobs:    d.family("treeschedd_queue_wait_seconds_count"),
		queueWaitSec: d.family("treeschedd_queue_wait_seconds_sum"),
		hits:         d.family("treeschedd_cache_hits_total"),
		misses:       d.family("treeschedd_cache_misses_total"),
		pcHits:       d.family("treeschedd_precompute_cache_hits_total"),
		pcMisses:     d.family("treeschedd_precompute_cache_misses_total"),
		pcEvictions:  d.family("treeschedd_precompute_cache_evictions_total"),
		pcBytes:      after.family("treeschedd_precompute_cache_bytes"),
		shed: d.family(`treeschedd_admission_total{decision="shed_overload"}`) +
			d.family(`treeschedd_admission_total{decision="shed_queue_full"}`),
		degraded:   d.family("treeschedd_degraded_total"),
		gcPauseSec: d.family("treeschedd_gc_pause_seconds_total"),
	}
}
