package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// sample is a parsed Prometheus text exposition: series key (metric name
// plus its label block exactly as exposed, e.g.
// `strg_query_plans_total{strategy="rtree"}`) to value.
type sample map[string]float64

// parseProm reads the Prometheus text format the server's /metrics emits.
// Comment lines (# HELP, # TYPE) and blank lines are skipped; every other
// line must be `series value`, optionally followed by a timestamp.
func parseProm(r io.Reader) (sample, error) {
	out := make(sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The label block may contain spaces inside quoted values, so the
		// series ends at the closing brace when there is one.
		split := strings.LastIndexByte(line, '}')
		if split < 0 {
			split = strings.IndexByte(line, ' ')
		} else {
			split++
		}
		if split <= 0 || split >= len(line) {
			return nil, fmt.Errorf("metrics line %d: no value in %q", ln, line)
		}
		key := line[:split]
		fields := strings.Fields(line[split:])
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: malformed value in %q", ln, line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", ln, err)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// delta returns after minus before for every series in after. A series
// absent before counts from zero (a labelled child created mid-run).
func delta(before, after sample) sample {
	out := make(sample, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// family sums every series of one metric name whose labels contain all
// of the given `key="value"` fragments. Histogram sub-series (_sum,
// _count, _bucket) are distinct names and never match a bare family.
func (s sample) family(name string, labels ...string) float64 {
	var total float64
	for k, v := range s {
		base, lbl := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base, lbl = k[:i], k[i:]
		}
		if base != name {
			continue
		}
		ok := true
		for _, want := range labels {
			if !strings.Contains(lbl, want) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}
