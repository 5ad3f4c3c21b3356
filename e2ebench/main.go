// Command e2ebench is the repository's end-to-end benchmark: a
// single-process load generator that starts a real strg-server, drives
// it over HTTP with a seeded workload, checks every answer against an
// in-process reference, and prints one JSON result line.
//
//	e2ebench -server path/to/strg-server --workload query_mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics: counters scraped from
// /metrics around the same HTTP run, plus times from an in-process
// replay of the same inputs through each layer's public functions. See
// README.md for the workloads and the metric definitions; run.sh builds
// both binaries from the checkout and runs this one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	server   string
	workdir  string
}

// metric is one named result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*runner) error{
	"query_mix":      (*runner).queryMix,
	"ingest_crowded": (*runner).ingestCrowded,
	"live_feed":      (*runner).liveFeed,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "query_mix, ingest_crowded or live_feed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.StringVar(&o.server, "server", "", "path to the strg-server binary under test")
	flag.StringVar(&o.workdir, "workdir", "", "scratch directory for server data (removed afterwards)")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: --trace must be 0 or 1\n")
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || o.server == "" || o.workdir == "" {
		return fmt.Errorf("need -server, -workdir and --seconds >= 1")
	}
	dir, err := filepath.Abs(filepath.Join(o.workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r, err := newRunner(o, dir)
	if err != nil {
		return err
	}
	defer r.close()
	if err := wl(r); err != nil {
		return err
	}
	res := r.result()
	r.summary(os.Stderr)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// e2eMetrics is every end-to-end metric an untraced run reports.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"probe_p50_ms", "ms"},
	{"probe_p90_ms", "ms"},
	{"rss_p90_mb", "MB"},
}

// runResult accumulates one workload run.
type runResult struct {
	attempted, failed int64
	elapsed           float64   // measured window, seconds
	work              float64   // completed work units (queries, segments, frames)
	opMS              []float64 // closed-loop operation latencies
	probeMS           []float64 // probe-stream latencies
	rssMB             float64   // p90 of the window's resident-set samples
	before, after     sample
	errs              []string // validation failures: any fails the run
	notes             []string // human-readable summary lines
	layers            map[string]metric
}

func (rr *runResult) fail(format string, args ...any) {
	if len(rr.errs) < 20 {
		rr.errs = append(rr.errs, fmt.Sprintf(format, args...))
	}
}

func (rr *runResult) note(format string, args ...any) {
	rr.notes = append(rr.notes, fmt.Sprintf(format, args...))
}

// latencySummary renders a series as p50 and its measurable tail.
func latencySummary(name string, xs []float64) string {
	if len(xs) == 0 {
		return name + ": no samples"
	}
	q := tailPercentile(len(xs), 0.99, 0.9, 0.75)
	return fmt.Sprintf("%s: n=%d p50=%.3fms p%g=%.3fms max=%.3fms", name, len(xs),
		median(xs), q*100, quantile(xs, q), quantile(xs, 1))
}

func (r *runner) result() result {
	rr := r.res
	res := result{Correct: len(rr.errs) == 0, Attempted: rr.attempted, Failed: rr.failed}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	if r.opt.trace {
		res.Metrics = rr.layers
		return res
	}
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"op", rr.opMS}, {"probe", rr.probeMS}} {
		if b := beyond(len(s.xs), 0.9); b < minBeyond {
			rr.note("WARNING: %s_p90_ms has %d samples beyond it (< %d)", s.name, b, minBeyond)
		}
	}
	vals := map[string]float64{
		"setup_s":      median(r.setupS),
		"ops_per_s":    ratio(rr.work, rr.elapsed),
		"op_p50_ms":    quantile(rr.opMS, 0.5),
		"op_p90_ms":    quantile(rr.opMS, 0.9),
		"probe_p50_ms": quantile(rr.probeMS, 0.5),
		"probe_p90_ms": quantile(rr.probeMS, 0.9),
		"rss_p90_mb":   rr.rssMB,
	}
	res.Metrics = make(map[string]metric, len(e2eMetrics))
	for _, m := range e2eMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rr.fail("metric %s has no value", k)
			res.Metrics[k] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	return res
}

func (r *runner) summary(w *os.File) {
	rr := r.res
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%d trace=%v\n", r.opt.workload, r.opt.seed, r.opt.seconds, r.opt.trace)
	fmt.Fprintf(w, "setup: %d runs, %s s; corpus %d segments, %d OGs\n", len(r.setupS), fmtList(r.setupS), len(r.corpus), r.corpusOGs)
	fmt.Fprintf(w, "attempted=%d failed=%d window=%.2fs work=%.0f\n", rr.attempted, rr.failed, rr.elapsed, rr.work)
	for _, n := range rr.notes {
		fmt.Fprintln(w, n)
	}
	if len(rr.layers) > 0 {
		keys := make([]string, 0, len(rr.layers))
		for k := range rr.layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-34s %12.4f %s\n", k, rr.layers[k].Value, rr.layers[k].Unit)
		}
	}
	for _, e := range rr.errs {
		fmt.Fprintf(w, "VALIDATION FAILED: %s\n", e)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, ",")
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
