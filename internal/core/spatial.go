package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"strgindex/internal/dist"
	"strgindex/internal/index"
	"strgindex/internal/query"
	"strgindex/internal/rtree"
	"strgindex/internal/strg"
)

// trajIndex is the trajectory R-tree maintained at ingest: each OG's
// centroid path decomposed into per-step (x, y, t) boxes, all carrying
// the OG's ingest ordinal. A step box spans two consecutive samples in
// space and time, so the union of an OG's boxes covers its whole frame
// span — the superset guarantee every planner probe relies on (spatial
// probes use the full t-range, temporal probes the full xy-range, and
// `within` both; see query.probeBox).
type trajIndex struct {
	tree *rtree.Tree[int32]
	// maxID is one past the highest inserted ordinal; candidates uses it
	// to dedup hits with a bitmap instead of sorting (a probe can return
	// many step boxes per OG, and the sort dominated probe cost).
	maxID int
}

func newTrajIndex() *trajIndex {
	t, err := rtree.New[int32](0)
	if err != nil {
		panic(err) // unreachable: default capacity is always valid
	}
	return &trajIndex{tree: t}
}

// insert indexes one OG under its ingest ordinal.
func (ti *trajIndex) insert(id int, og *strg.OG) {
	n := og.Len()
	if n == 0 {
		return
	}
	if id >= ti.maxID {
		ti.maxID = id + 1
	}
	if n == 1 {
		c, f := og.Centroids[0], float64(og.Frames[0])
		ti.tree.Insert(rtree.NewBox(
			[3]float64{c.X, c.Y, f},
			[3]float64{c.X, c.Y, f},
		), int32(id))
		return
	}
	for i := 1; i < n; i++ {
		a, b := og.Centroids[i-1], og.Centroids[i]
		ti.tree.Insert(rtree.NewBox(
			[3]float64{a.X, a.Y, float64(og.Frames[i-1])},
			[3]float64{b.X, b.Y, float64(og.Frames[i])},
		), int32(id))
	}
}

// probeScratch is the per-probe working set candidates reuses across
// queries: the raw hit buffer and the dedup bitmap. Pooled (not hung off
// trajIndex) because SharedDB runs composed queries concurrently under
// its read lock.
type probeScratch struct {
	hits []int32
	seen []bool
}

var probePool = sync.Pool{New: func() any { return new(probeScratch) }}

// candidates returns the distinct OG ordinals owning a box intersecting
// b, ascending, plus the tree nodes visited. Hits arrive one per step
// box; a bitmap over the ordinal space dedups and orders them in O(hits
// + maxID), cheaper than sorting when a probe crosses many step boxes.
func (ti *trajIndex) candidates(b rtree.Box) ([]int, int) {
	sc := probePool.Get().(*probeScratch)
	defer probePool.Put(sc)
	var visited int
	sc.hits, visited = ti.tree.SearchAppend(b, sc.hits)
	if len(sc.hits) == 0 {
		return nil, visited
	}
	if cap(sc.seen) < ti.maxID {
		sc.seen = make([]bool, ti.maxID)
	}
	seen := sc.seen[:ti.maxID]
	n := 0
	for _, h := range sc.hits {
		if !seen[h] {
			seen[h] = true
			n++
		}
	}
	ids := make([]int, 0, n)
	for id, ok := range seen {
		if ok {
			ids = append(ids, id)
		}
	}
	// Scrub only the bits this probe set (O(hits), not O(maxID)) so the
	// pooled bitmap comes back clean.
	for _, h := range sc.hits {
		seen[h] = false
	}
	return ids, visited
}

// querySource adapts a VideoDB to the planner's Source interface. It is
// only valid while the database cannot mutate (VideoDB is single-writer;
// SharedDB runs composed queries under its read lock).
type querySource struct{ db *VideoDB }

func (s querySource) NumOGs() int       { return len(s.db.ogs) }
func (s querySource) OG(i int) *strg.OG { return s.db.ogs[i] }

func (s querySource) SpatialStats() (rtree.Box, int, bool) {
	if s.db.traj == nil {
		return rtree.Box{}, 0, false
	}
	b, ok := s.db.traj.tree.Bounds()
	return b, s.db.traj.tree.Len(), ok
}

func (s querySource) SpatialCandidates(b rtree.Box) ([]int, int, bool) {
	if s.db.traj == nil {
		return nil, 0, false
	}
	ids, visited := s.db.traj.candidates(b)
	return ids, visited, true
}

func (s querySource) DistanceUB(q dist.Sequence, i int, ub float64) (float64, bool) {
	return s.db.tree.Cascade().DistanceUB(q, s.db.ogs[i].Sequence(), ub)
}

// ApproxStats implements query.ApproxSource: the planner reads the tier's
// IVF geometry to resolve probe counts and fill the plan envelope.
func (s querySource) ApproxStats() (nlists, defaultNProbe int, ok bool) {
	if s.db.vec == nil {
		return 0, 0, false
	}
	nlists, defaultNProbe = s.db.ApproxLists()
	return nlists, defaultNProbe, true
}

// QueryResult is one executed declarative query: the matches plus the
// plan that produced them and its per-stage accounting. For a plan routed
// through the STRG-Index (pure similarity) Search carries the
// filter-and-refine accounting; planner-executed plans report per-stage
// candidate counts in Stages instead.
type QueryResult struct {
	Matches []Match
	Search  index.SearchStats
	Plan    query.Plan
	Stages  []query.StageStat
	// Approx carries the approximate tier's probe accounting (nil for
	// every other strategy).
	Approx *ApproxInfo
	// Total counts matches before Limit truncation; Limit echoes the
	// effective cap (0 = none).
	Total     int
	Truncated bool
	Limit     int
}

// QueryComposed is QueryComposedCtx without cancellation.
func (db *VideoDB) QueryComposed(q *query.Query) (*QueryResult, error) {
	return db.QueryComposedCtx(context.Background(), q)
}

// QueryComposedCtx plans and executes one declarative query — the
// database's one query entry point (QuerySegment aside). A pure
// similarity query routes to the STRG-Index lower-bound cascade:
// Algorithm 3's single-cluster k-NN, the exact all-cluster k-NN
// (Exact), the range search (Radius) or, with mode "approx", the IVF
// tier. Anything with a where tree runs the cost-based planner, probing
// the trajectory R-tree when a selective spatial/temporal conjunct makes
// that cheaper than a scan. Plans never change answers — only the work
// done. A done ctx stops the search's worker pool from claiming further
// work and returns ctx.Err(); a recovered worker panic is returned as an
// error.
func (db *VideoDB) QueryComposedCtx(ctx context.Context, q *query.Query) (*QueryResult, error) {
	if err := query.Validate(q); err != nil {
		return nil, err
	}
	src := querySource{db: db}
	p := query.BuildPlan(q, src)

	if p.Strategy == query.StrategyApprox {
		if db.vec == nil {
			return nil, fmt.Errorf("query: mode %q: %w", query.ModeApprox, ErrApproxDisabled)
		}
		query.ObservePlan(p)
		c := q.Similar
		ms, st, info, err := db.approxKNN(ctx, c.Trajectory, c.K, p.NProbe)
		if err != nil {
			return nil, err
		}
		res := &QueryResult{Matches: ms, Search: st, Plan: p, Approx: info, Total: len(ms), Limit: q.Limit}
		if q.Limit > 0 && len(ms) > q.Limit {
			res.Matches = ms[:q.Limit]
			res.Truncated = true
		}
		return res, nil
	}

	if p.Strategy == query.StrategyIndex {
		query.ObservePlan(p)
		c := q.Similar
		var ms []Match
		var st index.SearchStats
		var err error
		switch {
		case c.Radius > 0:
			ms, st, err = db.rangeSearch(ctx, c.Trajectory, c.Radius)
		default:
			ms, st, err = db.knn(ctx, nil, c.Trajectory, c.K, c.Exact)
		}
		if err != nil {
			return nil, err
		}
		res := &QueryResult{Matches: ms, Search: st, Plan: p, Total: len(ms), Limit: q.Limit}
		if q.Limit > 0 && len(ms) > q.Limit {
			res.Matches = ms[:q.Limit]
			res.Truncated = true
		}
		return res, nil
	}

	start := time.Now()
	er, err := query.Execute(ctx, src, q, p)
	if err != nil {
		return nil, err
	}
	if q.Similar == nil {
		querySelectSeconds.Observe(time.Since(start).Seconds())
	} else {
		queryComposedSeconds.Observe(time.Since(start).Seconds())
	}
	res := &QueryResult{
		Plan:      p,
		Stages:    er.Stages,
		Total:     er.Total,
		Truncated: er.Truncated,
		Limit:     q.Limit,
		Matches:   make([]Match, len(er.Indices)),
	}
	for i, id := range er.Indices {
		res.Matches[i] = Match{Record: db.records[id]}
		if er.Ranked != nil {
			res.Matches[i].Distance = er.Ranked[i].Distance
		}
	}
	return res, nil
}

// CheckSpatialIndex cross-checks the trajectory R-tree against the
// retained OGs: structural invariants, full coverage (every OG with
// samples is reachable through a whole-bounds probe) and no phantoms.
// The golden and soak harnesses call it after every mutation batch.
func (db *VideoDB) CheckSpatialIndex() error {
	if db.traj == nil {
		return nil
	}
	if err := db.traj.tree.CheckInvariants(); err != nil {
		return err
	}
	bounds, ok := db.traj.tree.Bounds()
	if !ok {
		if len(db.ogs) > 0 {
			for i, og := range db.ogs {
				if og.Len() > 0 {
					return fmt.Errorf("core: spatial index empty but OG %d has %d samples", i, og.Len())
				}
			}
		}
		return nil
	}
	ids, _ := db.traj.candidates(bounds)
	want := 0
	for _, og := range db.ogs {
		if og.Len() > 0 {
			want++
		}
	}
	if len(ids) != want {
		return fmt.Errorf("core: spatial index covers %d OGs, want %d", len(ids), want)
	}
	for _, id := range ids {
		if id < 0 || id >= len(db.ogs) {
			return fmt.Errorf("core: spatial index holds phantom OG %d (have %d)", id, len(db.ogs))
		}
	}
	return nil
}
