package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"strgindex/internal/core"
	"strgindex/internal/dist"
	"strgindex/internal/query"
)

// identityHarness is one server plus a reference database built from the
// same configuration and fed the same segments in the same order. Every
// HTTP query the test issues is mirrored by exactly one in-process
// QueryComposedCtx call on the reference, so per-database state (the distance cache) evolves in
// lockstep and stats must agree byte for byte.
type identityHarness struct {
	srv *Server
	ts  *httptest.Server
	ref *core.SharedDB
}

func newIdentityHarness(t *testing.T, shards int, disableCascade bool) *identityHarness {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Concurrency = 2
	cfg.Index.Shards = shards
	if disableCascade {
		cfg.Index.Cascade = dist.ExactOnly(dist.EGEDMZero)
	}
	s := NewWith(cfg, quietOptions())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	h := &identityHarness{srv: s, ts: ts, ref: core.OpenShared(cfg)}
	for i, spec := range []struct {
		label string
		y     float64
		seed  int64
	}{{"east-mid", 120, 7}, {"east-high", 60, 8}, {"east-low", 180, 9}} {
		ingest(t, ts, spec.label, spec.y, spec.seed)
		if _, err := h.ref.IngestSegment("cam0", testSegment(t, spec.label, spec.y, spec.seed)); err != nil {
			t.Fatalf("reference ingest %d: %v", i, err)
		}
	}
	return h
}

// postQuery posts one /v1/query document and decodes the envelope.
func (h *identityHarness) postQuery(t *testing.T, body any) queryResponse {
	t.Helper()
	resp, raw := post(t, h.ts.URL+"/v1/query", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/query: status %d: %s", resp.StatusCode, raw)
	}
	return decodeQuery(t, raw)
}

// zeroMicros strips the only nondeterministic field (stage wall time)
// before whole-envelope comparison.
func zeroMicros(r queryResponse) queryResponse {
	stages := make([]stageJSON, len(r.Stats.Stages))
	copy(stages, r.Stats.Stages)
	for i := range stages {
		stages[i].Micros = 0
	}
	r.Stats.Stages = stages
	return r
}

// TestQueryEnvelopeByteIdentical pins the one query surface at every
// shard count and with the lower-bound cascade both on and off: a
// POST /v1/query document answers exactly the envelope — matches, search
// accounting, stages and plan — that SharedDB.QueryComposedCtx produces
// in-process for the same parsed document on an identically built
// database.
func TestQueryEnvelopeByteIdentical(t *testing.T) {
	traj := [][2]float64{{16, 120}, {106, 120}, {196, 120}}
	rect := map[string]any{"x0": 140, "y0": 0, "x1": 180, "y1": 240}
	docs := []struct {
		name     string
		doc      map[string]any
		strategy query.Strategy
	}{
		{"knn", map[string]any{"similar": map[string]any{"trajectory": traj, "k": 3}}, query.StrategyIndex},
		{"exact", map[string]any{"similar": map[string]any{"trajectory": traj, "k": 3, "exact": true}}, query.StrategyIndex},
		{"range", map[string]any{"similar": map[string]any{"trajectory": traj, "radius": 4000}}, query.StrategyIndex},
		{"select", map[string]any{"where": map[string]any{"and": []any{
			map[string]any{"passes_through": rect},
			map[string]any{"heading": map[string]any{"dir": "east"}},
		}}}, ""},
		{"composed", map[string]any{
			"where":   map[string]any{"passes_through": rect},
			"similar": map[string]any{"trajectory": traj, "k": 2},
		}, ""},
	}
	for _, shards := range []int{1, 2, 4} {
		for _, noCascade := range []bool{false, true} {
			name := map[bool]string{false: "cascade", true: "exact-only"}[noCascade]
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				h := newIdentityHarness(t, shards, noCascade)
				for _, d := range docs {
					got := h.postQuery(t, d.doc)
					raw, err := json.Marshal(d.doc)
					if err != nil {
						t.Fatal(err)
					}
					q, err := query.Parse(raw)
					if err != nil {
						t.Fatal(err)
					}
					if q.Similar == nil {
						q.Limit = defaultSelectLimit // runComposed's predicate-only cap
					}
					res, err := h.ref.QueryComposedCtx(context.Background(), q)
					if err != nil {
						t.Fatal(err)
					}
					want := h.srv.toQueryResponse(res)
					if !reflect.DeepEqual(zeroMicros(got), zeroMicros(want)) {
						t.Errorf("%s: /v1/query envelope %+v, in-process %+v", d.name, zeroMicros(got), zeroMicros(want))
					}
					if d.strategy != "" && got.Plan.Strategy != string(d.strategy) {
						t.Errorf("%s: plan strategy = %q, want %q", d.name, got.Plan.Strategy, d.strategy)
					}
					if len(got.Matches) == 0 {
						t.Errorf("%s: no matches; the document should hit the corpus", d.name)
					}
				}
			})
		}
	}
}
