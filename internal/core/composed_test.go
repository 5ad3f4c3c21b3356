package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
	"strgindex/internal/index"
	"strgindex/internal/query"
)

// composedDB ingests one deterministic lab stream (the same corpus the
// motion-predicate tests use) into a database with the trajectory index on.
func composedDB(t *testing.T, mut func(*Config)) *VideoDB {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	db := Open(cfg)
	if err := db.IngestStream(miniStream(t, 14, 31)); err != nil {
		t.Fatal(err)
	}
	return db
}

// querier is the query surface VideoDB and SharedDB share.
type querier interface {
	QueryComposedCtx(ctx context.Context, q *query.Query) (*QueryResult, error)
}

// similar runs one pure-similarity query through QueryComposedCtx,
// returning its matches and search accounting.
func similar(ctx context.Context, db querier, c query.SimilarClause) ([]Match, index.SearchStats, error) {
	res, err := db.QueryComposedCtx(ctx, &query.Query{Similar: &c})
	if err != nil {
		return nil, index.SearchStats{}, err
	}
	return res.Matches, res.Search, nil
}

// mustSimilar is similar reporting failure through t.Errorf, so it is safe
// to call from test-spawned goroutines.
func mustSimilar(t testing.TB, db querier, c query.SimilarClause) []Match {
	t.Helper()
	ms, _, err := similar(context.Background(), db, c)
	if err != nil {
		t.Errorf("similar query %+v: %v", c, err)
	}
	return ms
}

// knn, knnExact and rangeOf are mustSimilar for the three index-routed
// similarity forms: Algorithm 3's k-NN, the exact k-NN and the range
// search.
func knn(t testing.TB, db querier, seq dist.Sequence, k int) []Match {
	t.Helper()
	return mustSimilar(t, db, query.SimilarClause{Trajectory: seq, K: k})
}

func knnExact(t testing.TB, db querier, seq dist.Sequence, k int) []Match {
	t.Helper()
	return mustSimilar(t, db, query.SimilarClause{Trajectory: seq, K: k, Exact: true})
}

func rangeOf(t testing.TB, db querier, seq dist.Sequence, radius float64) []Match {
	t.Helper()
	return mustSimilar(t, db, query.SimilarClause{Trajectory: seq, Radius: radius})
}

// scanWhere is the where-query reference: a plain scan of the retained
// OGs with the compiled matcher, in ingest order with distance 0.
func scanWhere(t *testing.T, db *VideoDB, where query.Node) []Match {
	t.Helper()
	m, err := query.NewMatcher(&query.Query{Where: where}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []Match
	for i, og := range db.OGs() {
		if m.Match(og) {
			out = append(out, Match{Record: db.records[i]})
		}
	}
	return out
}

// composed runs one declarative query and fails the test on error.
func composed(t *testing.T, db *VideoDB, q *query.Query) *QueryResult {
	t.Helper()
	res, err := db.QueryComposed(q)
	if err != nil {
		t.Fatalf("QueryComposed: %v", err)
	}
	return res
}

// TestQueryComposedMatchesLegacySelect: for every where-tree shape, the
// planner-executed query must return exactly what the legacy predicate
// scan (scanWhere) returns — same records, same ingest order. The
// planner only changes how much work is done, never the answer.
func TestQueryComposedMatchesLegacySelect(t *testing.T) {
	db := composedDB(t, nil)
	if err := db.CheckSpatialIndex(); err != nil {
		t.Fatal(err)
	}
	center := geom.Rect{Min: geom.Pt(140, 0), Max: geom.Pt(180, 240)}
	corner := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(60, 60)}
	cases := []struct {
		name  string
		where query.Node
	}{
		{"passes", query.SpatialNode{Kind: query.SpatialPasses, Rect: center}},
		{"starts", query.SpatialNode{Kind: query.SpatialStarts, Rect: corner}},
		{"ends", query.SpatialNode{Kind: query.SpatialEnds, Rect: corner}},
		{"within", query.WithinNode{Rect: center, From: 0, To: 40}},
		{"during", query.DuringNode{From: 10, To: 40}},
		{"speed", query.SpeedNode{Lo: 2, Hi: math.Inf(1)}},
		{"u-turn", query.UTurnNode{MinTurn: math.Pi * 0.8}},
		{"not", query.NotNode{Child: query.SpatialNode{Kind: query.SpatialPasses, Rect: center}}},
		{"composed", query.AndNode{Children: []query.Node{
			query.SpatialNode{Kind: query.SpatialPasses, Rect: center},
			query.OrNode{Children: []query.Node{
				query.HeadingNode{Dir: "east", Angle: 0, Tol: 0.4},
				query.HeadingNode{Dir: "west", Angle: math.Pi, Tol: 0.4},
			}},
		}}},
	}
	for _, c := range cases {
		res := composed(t, db, &query.Query{Where: c.where})
		want := scanWhere(t, db, c.where)
		if !reflect.DeepEqual(res.Matches, want) {
			t.Errorf("%s (%s plan): %d matches, reference scan %d",
				c.name, res.Plan.Strategy, len(res.Matches), len(want))
		}
		if res.Total != len(want) || res.Truncated {
			t.Errorf("%s: total %d truncated %v, want %d false",
				c.name, res.Total, res.Truncated, len(want))
		}
	}
}

// TestQueryComposedPrunesCandidates is the fix for the select full-scan:
// a selective spatial query must route through the trajectory R-tree and
// hand the residual filter strictly fewer candidates than a full scan
// would examine — while still returning the full scan's exact answer.
func TestQueryComposedPrunesCandidates(t *testing.T) {
	db := composedDB(t, nil)
	scanDB := composedDB(t, func(c *Config) { c.DisableTrajIndex = true })

	q := &query.Query{Where: query.SpatialNode{
		Kind: query.SpatialPasses,
		Rect: geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(25, 25)},
	}}
	res := composed(t, db, q)
	if res.Plan.Strategy != query.StrategyRTree {
		t.Fatalf("strategy = %s (sel=%g scan=%g rtree=%g), want rtree",
			res.Plan.Strategy, res.Plan.EstSelectivity, res.Plan.CostScan, res.Plan.CostRTree)
	}
	total := db.Stats().OGs
	var filterIn = -1
	for _, st := range res.Stages {
		if st.Name == "filter" {
			filterIn = st.In
		}
	}
	if filterIn < 0 {
		t.Fatalf("no filter stage in %v", res.Stages)
	}
	if filterIn >= total {
		t.Errorf("filter examined %d candidates, no better than scanning all %d OGs", filterIn, total)
	}

	scanRes := composed(t, scanDB, q)
	if scanRes.Plan.Strategy != query.StrategyScan {
		t.Fatalf("DisableTrajIndex plan = %s, want scan", scanRes.Plan.Strategy)
	}
	if !reflect.DeepEqual(res.Matches, scanRes.Matches) {
		t.Errorf("pruned plan returned %d matches, full scan %d — answers must not depend on the index",
			len(res.Matches), len(scanRes.Matches))
	}
}

// TestQueryComposedPureSimilarByteIdentity: a query with no where tree
// must route to the STRG-Index and produce byte-identical matches AND
// byte-identical search accounting to calling the index kernels directly.
func TestQueryComposedPureSimilarByteIdentity(t *testing.T) {
	db := composedDB(t, nil)
	traj := dist.Sequence{{16, 120}, {46, 120}, {76, 120}, {106, 120}}
	cases := []struct {
		name string
		sim  query.SimilarClause
	}{
		{"knn", query.SimilarClause{Trajectory: traj, K: 5}},
		{"knn-exact", query.SimilarClause{Trajectory: traj, K: 5, Exact: true}},
		{"range", query.SimilarClause{Trajectory: traj, Radius: 950}},
	}
	for _, c := range cases {
		sim := c.sim
		res := composed(t, db, &query.Query{Similar: &sim})
		if res.Plan.Strategy != query.StrategyIndex {
			t.Fatalf("%s: strategy = %s, want index", c.name, res.Plan.Strategy)
		}
		var want []Match
		var wantStats any
		switch {
		case sim.Radius > 0:
			m, st, err := db.rangeSearch(t.Context(), traj, sim.Radius)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats = m, st
		default:
			m, st, err := db.knn(t.Context(), nil, traj, sim.K, sim.Exact)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats = m, st
		}
		if !reflect.DeepEqual(res.Matches, want) {
			t.Errorf("%s: composed matches differ from the index kernel's", c.name)
		}
		if !reflect.DeepEqual(res.Search, wantStats) {
			t.Errorf("%s: SearchStats %+v, kernel %+v", c.name, res.Search, wantStats)
		}
	}
}

// TestQueryComposedLimitOnIndexPath: the limit truncates index-routed
// answers after Total is counted, exactly like planner-executed ones.
func TestQueryComposedLimitOnIndexPath(t *testing.T) {
	db := composedDB(t, nil)
	traj := dist.Sequence{{16, 120}, {106, 120}}
	res := composed(t, db, &query.Query{
		Similar: &query.SimilarClause{Trajectory: traj, K: 5},
		Limit:   2,
	})
	if len(res.Matches) != 2 || res.Total != 5 || !res.Truncated {
		t.Errorf("got %d/%d truncated=%v, want 2/5 true", len(res.Matches), res.Total, res.Truncated)
	}
}

// TestQueryComposedSurvivesSaveLoad: a Save/Load round trip must keep
// predicate queries working — the snapshot carries the retained OGs and
// clip records, and Load rebuilds the trajectory R-tree from them, so a
// loaded database answers (and plans) exactly like the one that was
// saved. Regression test: the image used to drop ogs/records, so every
// where query against a loaded database silently scanned nothing.
func TestQueryComposedSurvivesSaveLoad(t *testing.T) {
	db := composedDB(t, nil)
	rect := geom.Rect{Min: geom.Pt(140, 0), Max: geom.Pt(180, 240)}
	q := &query.Query{Where: query.SpatialNode{Kind: query.SpatialPasses, Rect: rect}}
	want := composed(t, db, q)
	if len(want.Matches) == 0 {
		t.Fatal("seed query matched nothing; test rect misses the corpus")
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Load(&buf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckSpatialIndex(); err != nil {
		t.Fatalf("spatial index after load: %v", err)
	}
	got := composed(t, re, q)
	if got.Plan.Strategy != want.Plan.Strategy {
		t.Errorf("plan after load = %s, before = %s", got.Plan.Strategy, want.Plan.Strategy)
	}
	if !reflect.DeepEqual(got.Matches, want.Matches) {
		t.Errorf("loaded db returned %d matches, original %d", len(got.Matches), len(want.Matches))
	}

	if !reflect.DeepEqual(scanWhere(t, re, q.Where), scanWhere(t, db, q.Where)) {
		t.Error("reference scan differs across the save/load round trip")
	}
}

// TestCheckSpatialIndexDetectsCorruption: the auditor must actually
// catch a phantom entry, not just bless healthy trees.
func TestCheckSpatialIndexDetectsCorruption(t *testing.T) {
	db := composedDB(t, nil)
	if err := db.CheckSpatialIndex(); err != nil {
		t.Fatalf("healthy index rejected: %v", err)
	}
	db.traj.insert(len(db.ogs)+7, db.ogs[0])
	if err := db.CheckSpatialIndex(); err == nil {
		t.Error("phantom OG entry went undetected")
	}
}
