package main

import (
	"strings"
	"testing"
)

const promBefore = `# HELP strg_query_plans_total plans chosen
# TYPE strg_query_plans_total counter
strg_query_plans_total{strategy="scan"} 3
strg_query_plans_total{strategy="rtree"} 10
strg_dist_evals_total 1e3
strg_http_request_seconds_sum{route="/v1/query",method="POST"} 0.5
strg_http_request_seconds_count{route="/v1/query",method="POST"} 4
strg_build_rag_seconds_bucket{le="+Inf"} 7
`

const promAfter = `strg_query_plans_total{strategy="scan"} 5
strg_query_plans_total{strategy="rtree"} 25
strg_query_plans_total{strategy="index"} 2
strg_dist_evals_total 1500 1700000000000
strg_http_request_seconds_sum{route="/v1/query",method="POST"} 1.25
strg_http_request_seconds_count{route="/v1/query",method="POST"} 9
strg_build_rag_seconds_bucket{le="+Inf"} 7
strg_label_with_space{msg="a b}"} 1
`

func TestPromDelta(t *testing.T) {
	b, err := parseProm(strings.NewReader(promBefore))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseProm(strings.NewReader(promAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := delta(b, a)
	for _, c := range []struct {
		got, want float64
		what      string
	}{
		{d.family("strg_query_plans_total"), 19, "all strategies"},
		{d.family("strg_query_plans_total", `strategy="rtree"`), 15, "rtree"},
		{d.family("strg_query_plans_total", `strategy="index"`), 2, "child created mid-run"},
		{d.family("strg_dist_evals_total"), 500, "unlabelled with timestamp"},
		{d.family("strg_http_request_seconds_sum", `route="/v1/query"`), 0.75, "histogram sum"},
		{d.family("strg_http_request_seconds_count"), 5, "histogram count"},
		{d.family("strg_http_request_seconds"), 0, "bare family excludes sub-series"},
		{d.family("strg_build_rag_seconds_bucket", `le="+Inf"`), 0, "unchanged"},
		{a.family("strg_label_with_space"), 1, "space and brace inside a label value"},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.what, c.got, c.want)
		}
	}
}

func TestPromRejectsMalformed(t *testing.T) {
	for _, in := range []string{"strg_x\n", "strg_x abc\n", "strg_x{a=\"b\"}\n", "strg_x 1 2 3\n"} {
		if _, err := parseProm(strings.NewReader(in)); err == nil {
			t.Errorf("parseProm(%q) accepted malformed input", in)
		}
	}
}
