package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"strgindex/internal/core"
	"strgindex/internal/faultfs"
	"strgindex/internal/feed"
	"strgindex/internal/obs"
	"strgindex/internal/query"
	"strgindex/internal/strg"
	"strgindex/internal/video"
	"strgindex/internal/wal"
)

// The traced run. After the untraced HTTP run of the same invocation has
// been measured and checked, the same seeded inputs are replayed
// in-process, timing calls into each layer's public functions; counters
// come from the /metrics delta of the HTTP run.
//
// Replay caps keep a traced run inside its time budget; the inputs are
// seeded and shuffled, so a prefix is a fair sample.
const (
	traceQueries  = 4000 // query_mix requests replayed
	traceSegments = 40   // ingest_crowded segments replayed
	traceAppends  = 300  // live_feed appends replayed
	// accountLo and accountHi bound trace.accounted_ratio: the traced
	// in-process layer times must cover at least accountLo of the
	// untraced end-to-end time (the rest is HTTP, reported as
	// server.overhead_ms) and exceed it by at most accountHi-1 (tracing
	// overhead plus run-to-run noise).
	accountLo = 0.2
	accountHi = 1.3
)

// layerNames is every per-layer metric with its unit; a workload that
// never reaches a layer reports 0 for it.
var layerNames = []struct{ name, unit string }{
	{"server.overhead_ms", "ms"},
	{"server.shed_total", "count"},
	{"server.ingest_decode_ms", "ms"},
	{"query.parse_us", "us"},
	{"query.plan_us", "us"},
	{"query.rows_per_result", "ratio"},
	{"query.plans.scan", "count"},
	{"query.plans.rtree", "count"},
	{"query.plans.index", "count"},
	{"core.query_ms.knn", "ms"},
	{"core.query_ms.exact", "ms"},
	{"core.query_ms.select", "ms"},
	{"core.query_ms.composed", "ms"},
	{"core.select_contended_ms", "ms"},
	{"core.select_blocked_ms", "ms"},
	{"core.cache_hit_ratio", "ratio"},
	{"core.commit_ms", "ms"},
	{"core.wal_ms", "ms"},
	{"index.node_visits_per_search", "count"},
	{"index.leaf_scans_per_search", "count"},
	{"index.leaves_pruned_per_search", "count"},
	{"index.splits", "count"},
	{"index.split_evals", "count"},
	{"dist.evals_per_query", "count"},
	{"dist.dp_cells_per_query", "count"},
	{"dist.lb_prune_ratio", "ratio"},
	{"dist.dp_abandon_ratio", "ratio"},
	{"rag.build_ms_per_frame", "ms"},
	{"strg.track_ms_per_segment", "ms"},
	{"strg.decompose_ms_per_segment", "ms"},
	{"strg.alloc_mb_per_segment", "MB"},
	{"strg.online_ms_per_frame", "ms"},
	{"strg.temporal_edges", "count"},
	{"strg.ogs_per_segment", "count"},
	{"wal.fsyncs_per_op", "count"},
	{"wal.bytes_per_og", "B"},
	{"feed.append_ms", "ms"},
	{"feed.epochs", "count"},
	{"feed.frames_per_epoch", "count"},
	{"feed.commit_ms", "ms"},
	{"feed.dispatch_ms", "ms"},
	{"feed.events_dropped", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.lateness_p90_ms", "ms"},
	{"trace.accounted_ratio", "ratio"},
	{"trace.overhead_ms", "ms"},
}

// tracer collects one traced run's per-layer values.
type tracer struct {
	r    *runner
	vals map[string]float64
	gc0  runtime.MemStats
}

func (r *runner) newTracer() *tracer {
	t := &tracer{r: r, vals: make(map[string]float64)}
	runtime.ReadMemStats(&t.gc0)
	t.counters()
	return t
}

func (t *tracer) set(name string, v float64) { t.vals[name] = v }

// counters derives the per-layer counts of the HTTP run from its
// /metrics delta.
func (t *tracer) counters() {
	d := delta(t.r.res.before, t.r.res.after)
	t.set("server.shed_total", d.family("strg_http_shed_total"))
	for _, s := range []string{"scan", "rtree", "index"} {
		t.set("query.plans."+s, d.family("strg_query_plans_total", `strategy="`+s+`"`))
	}
	hits, misses := d.family("strg_dist_cache_hits_total"), d.family("strg_dist_cache_misses_total")
	t.set("core.cache_hit_ratio", ratio(hits, hits+misses))
	searches := d.family("strg_index_searches_total")
	t.set("index.node_visits_per_search", ratio(d.family("strg_index_node_visits_total"), searches))
	t.set("index.leaf_scans_per_search", ratio(d.family("strg_index_leaf_scans_total"), searches))
	t.set("index.leaves_pruned_per_search", ratio(d.family("strg_index_leaves_pruned_total"), searches))
	t.set("index.splits", d.family("strg_index_splits_total"))
	t.set("index.split_evals", d.family("strg_index_split_evals_total"))
	queries := d.family("strg_query_seconds_count")
	t.set("dist.evals_per_query", ratio(d.family("strg_dist_evals_total"), queries))
	t.set("dist.dp_cells_per_query", ratio(d.family("strg_dist_dp_cells_total"), queries))
	pruned, passed := d.family("strg_dist_lb_pruned_total"), d.family("strg_dist_lb_passed_total")
	t.set("dist.lb_prune_ratio", ratio(pruned, pruned+passed))
	t.set("dist.dp_abandon_ratio", ratio(d.family("strg_dist_dp_abandoned_total"), passed))
	writes := d.family("strg_ingest_segments_total") + d.family("strg_feed_append_seconds_count")
	t.set("wal.fsyncs_per_op", ratio(d.family("strg_wal_fsyncs_total"), writes))
	t.set("wal.bytes_per_og", ratio(d.family("strg_wal_append_bytes_total"), d.family("strg_ingest_ogs_total")))
	flushes := d.family("strg_feed_flushes_total")
	t.set("feed.epochs", flushes)
	t.set("feed.frames_per_epoch", ratio(d.family("strg_feed_frames_total"), flushes))
	t.set("feed.events_dropped", d.family("strg_feed_events_dropped_total"))
	t.set("loadgen.lateness_p90_ms", t.r.lateP90)
}

// finish stores the layer metrics and checks the accounting: traced is
// the replay's summed layer time and untraced the HTTP run's end-to-end
// time, over the same ops operations.
func (t *tracer) finish(traced, untraced float64, ops int) {
	acc := ratio(traced, untraced)
	t.set("trace.accounted_ratio", acc)
	t.set("trace.overhead_ms", ratio(traced-untraced, float64(ops)))
	if acc < accountLo || acc > accountHi {
		t.r.res.note("FLAG: traced layers account for %.2f of the untraced end-to-end time (tolerance %.2f-%.2f)", acc, accountLo, accountHi)
	}
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	t.set("runtime.gc_cycles", float64(gc1.NumGC-t.gc0.NumGC))
	t.set("runtime.gc_pause_ms", float64(gc1.PauseTotalNs-t.gc0.PauseTotalNs)/1e6)
	out := make(map[string]metric, len(layerNames))
	for _, l := range layerNames {
		v := t.vals[l.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer this replay never reached
		}
		out[l.name] = metric{v, l.unit}
	}
	t.r.res.layers = out
}

// serverConfig mirrors strg-server's default flags, so the replay builds
// the same index the server does.
func serverConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.DistCacheSize = -1
	cfg.Index.Shards = 4
	cfg.Index.AsyncSplit = true
	return cfg
}

// replayDB is a durable in-process database in the run directory.
func (r *runner) replayDB(name string) (*core.SharedDB, func(), error) {
	dir := filepath.Join(r.dir, name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	db, _, err := core.OpenDurable(serverConfig(), core.Durability{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	return db, func() { db.Close(); os.RemoveAll(dir) }, nil
}

// ingestTrace is the per-segment layer breakdown of one ingest.
type ingestTrace struct {
	decode, rag, track, decompose, commit, walMS, total float64
	allocMB                                             float64
	frames, ogs, edges                                  int
}

// histSums reads the pipeline's own strg.Build phase histograms
// (seconds) from the process-global registry.
func histSums() (ragS, trackS float64, err error) {
	var b bytes.Buffer
	obs.Default.WritePrometheus(&b)
	s, err := parseProm(&b)
	if err != nil {
		return 0, 0, err
	}
	return s.family("strg_build_rag_seconds_sum"), s.family("strg_build_track_seconds_sum"), nil
}

// traceIngest replays one POST /v1/segments body through the layers:
// JSON decode and validation, strg.Build (RAG construction and tracking
// split by the pipeline's own phase histograms, allocation measured
// around it), Decompose, a WAL append of the segment, and the durable
// SharedDB.IngestSegment whose remainder is the commit.
func traceIngest(db *core.SharedDB, wl *wal.Log, body []byte) (ingestTrace, error) {
	var tr ingestTrace
	t0 := time.Now()
	var req struct {
		Stream  string         `json:"stream"`
		Segment *video.Segment `json:"segment"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return tr, err
	}
	if err := req.Segment.Validate(); err != nil {
		return tr, err
	}
	tr.decode = msSince(t0)
	seg := req.Segment
	tr.frames = len(seg.Frames)

	cfg := serverConfig().STRG
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r0, _, err := histSums()
	if err != nil {
		return tr, err
	}
	t0 = time.Now()
	s, err := strg.Build(seg, cfg)
	if err != nil {
		return tr, err
	}
	build := msSince(t0)
	runtime.ReadMemStats(&m1)
	r1, _, err := histSums()
	if err != nil {
		return tr, err
	}
	tr.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	tr.rag = (r1 - r0) * 1000
	tr.track = build - tr.rag
	t0 = time.Now()
	d := s.Decompose(cfg)
	tr.decompose = msSince(t0)
	tr.ogs, tr.edges = len(d.OGs), s.NumTemporalEdges()

	var rec bytes.Buffer
	if err := gob.NewEncoder(&rec).Encode(struct {
		Stream string
		Seg    *video.Segment
	}{req.Stream, seg}); err != nil {
		return tr, err
	}
	t0 = time.Now()
	if err := wl.Append(rec.Bytes()); err != nil {
		return tr, err
	}
	tr.walMS = msSince(t0)

	r0, k0, err := histSums()
	if err != nil {
		return tr, err
	}
	t0 = time.Now()
	if _, err := db.IngestSegment(req.Stream, seg); err != nil {
		return tr, err
	}
	ingest := msSince(t0)
	r1, k1, err := histSums()
	if err != nil {
		return tr, err
	}
	tr.commit = ingest - (r1-r0)*1000 - (k1-k0)*1000 - tr.decompose - tr.walMS
	tr.total = tr.decode + ingest
	return tr, nil
}

// ingestLayers books the medians of a replayed ingest series.
func (t *tracer) ingestLayers(trs []ingestTrace) {
	var dec, ragF, track, decomp, commit, walMS, alloc, ogs []float64
	edges := 0
	for _, tr := range trs {
		dec = append(dec, tr.decode)
		ragF = append(ragF, tr.rag/float64(tr.frames))
		track = append(track, tr.track)
		decomp = append(decomp, tr.decompose)
		commit = append(commit, tr.commit)
		walMS = append(walMS, tr.walMS)
		alloc = append(alloc, tr.allocMB)
		ogs = append(ogs, float64(tr.ogs))
		edges += tr.edges
	}
	t.set("server.ingest_decode_ms", median(dec))
	t.set("rag.build_ms_per_frame", median(ragF))
	t.set("strg.track_ms_per_segment", median(track))
	t.set("strg.decompose_ms_per_segment", median(decomp))
	t.set("core.commit_ms", median(commit))
	t.set("core.wal_ms", median(walMS))
	t.set("strg.alloc_mb_per_segment", median(alloc))
	t.set("strg.ogs_per_segment", mean(ogs))
	t.set("strg.temporal_edges", float64(edges))
}

// replayCorpus ingests the corpus into db with per-layer tracing.
func (r *runner) replayCorpus(db *core.SharedDB, wl *wal.Log) ([]ingestTrace, error) {
	var trs []ingestTrace
	for _, it := range r.corpus {
		tr, err := traceIngest(db, wl, it.body)
		if err != nil {
			return nil, fmt.Errorf("replaying corpus: %w", err)
		}
		trs = append(trs, tr)
	}
	return trs, nil
}

func (r *runner) replayWAL() (*wal.Log, func(), error) {
	p := filepath.Join(r.dir, "replay-wal.log")
	wl, err := wal.Create(faultfs.OS{}, p)
	if err != nil {
		return nil, nil, err
	}
	return wl, func() { wl.Close(); os.Remove(p) }, nil
}

// queryTrace is one replayed query: query.Parse and
// SharedDB.QueryComposedCtx times, plan time (the core time not spent in
// executor stages), and the first stage's candidates and the matches.
type queryTrace struct {
	parseUS, coreMS, planUS float64
	in, out                 int
}

func replayQuery(db *core.SharedDB, doc []byte) (queryTrace, error) {
	var qt queryTrace
	t0 := time.Now()
	q, err := query.Parse(doc)
	if err != nil {
		return qt, err
	}
	qt.parseUS = float64(time.Since(t0).Nanoseconds()) / 1e3
	t0 = time.Now()
	res, err := db.QueryComposedCtx(context.Background(), q)
	if err != nil {
		return qt, err
	}
	el := time.Since(t0)
	qt.coreMS = float64(el.Nanoseconds()) / 1e6
	if len(res.Stages) > 0 {
		for _, s := range res.Stages {
			el -= s.Duration
		}
		qt.planUS = float64(el.Nanoseconds()) / 1e3
		qt.in = res.Stages[0].In
	}
	qt.out = len(res.Matches)
	return qt, nil
}

func (r *runner) traceQueryMix() error {
	t := r.newTracer()
	db, closeDB, err := r.replayDB("replay")
	if err != nil {
		return err
	}
	defer closeDB()
	wl, closeWAL, err := r.replayWAL()
	if err != nil {
		return err
	}
	defer closeWAL()
	trs, err := r.replayCorpus(db, wl)
	if err != nil {
		return err
	}
	t.ingestLayers(trs)
	db.QuiesceIndex()

	var byKind [numKinds][]float64
	var parse, plan []float64
	rowsIn, rowsOut := 0, 0
	var traced, untraced float64
	ops := 0
	var httpByKind [numKinds][]float64
	for i, q := range r.mixRecs {
		if i >= traceQueries {
			break
		}
		if !q.rep.ok() {
			continue
		}
		qt, err := replayQuery(db, r.pools.docs[q.kind][q.idx])
		if err != nil {
			return fmt.Errorf("replaying %s query: %w", kindNames[q.kind], err)
		}
		byKind[q.kind] = append(byKind[q.kind], qt.coreMS)
		httpByKind[q.kind] = append(httpByKind[q.kind], q.ms)
		parse = append(parse, qt.parseUS)
		if q.kind == qSelect || q.kind == qComposed {
			plan = append(plan, qt.planUS)
			rowsIn += qt.in
			rowsOut += qt.out
		}
		traced += qt.parseUS/1e3 + qt.coreMS
		untraced += q.ms
		ops++
	}
	for k := range byKind {
		t.set("core.query_ms."+kindNames[k], median(byKind[k]))
	}
	var over float64
	for k := range byKind {
		over += median(httpByKind[k]) - median(byKind[k])
	}
	t.set("server.overhead_ms", over/float64(numKinds))
	t.set("query.parse_us", median(parse))
	t.set("query.plan_us", median(plan))
	t.set("query.rows_per_result", ratio(float64(rowsIn), float64(rowsOut)))
	if err := r.traceSelects(t, db); err != nil {
		return err
	}
	t.finish(traced, untraced, ops)
	return nil
}

// traceSelects compares the probe's selects, timed from their send over
// HTTP, with the same queries in-process on an idle database: the
// difference is the time a select waited (for the ingest write lock, on
// ingest_crowded) plus the HTTP layer.
func (r *runner) traceSelects(t *tracer, db *core.SharedDB) error {
	var inproc []float64
	for _, q := range r.probeRecs {
		if q.kind != qSelect || !q.rep.ok() {
			continue
		}
		qt, err := replayQuery(db, r.pools.docs[qSelect][q.idx])
		if err != nil {
			return err
		}
		inproc = append(inproc, qt.coreMS)
	}
	if len(inproc) == 0 {
		return nil
	}
	t.set("core.select_contended_ms", median(r.selSendMS))
	t.set("core.select_blocked_ms", median(r.selSendMS)-median(inproc))
	return nil
}

func (r *runner) traceIngest() error {
	t := r.newTracer()
	db, closeDB, err := r.replayDB("replay")
	if err != nil {
		return err
	}
	defer closeDB()
	wl, closeWAL, err := r.replayWAL()
	if err != nil {
		return err
	}
	defer closeWAL()
	if _, err := r.replayCorpus(db, wl); err != nil {
		return err
	}
	db.QuiesceIndex()
	if err := r.traceSelects(t, db); err != nil {
		return err
	}
	var trs []ingestTrace
	var over []float64
	var traced, untraced float64
	for i, spec := range r.crowd {
		if i >= traceSegments || i >= len(r.crowdMS) {
			break
		}
		it, err := spec.item()
		if err != nil {
			return err
		}
		tr, err := traceIngest(db, wl, it.body)
		if err != nil {
			return fmt.Errorf("replaying crowded segment %d: %w", i, err)
		}
		if tr.ogs != r.crowdOGs[i] {
			r.res.fail("crowded segment %d: server made %d OGs, replay %d", i, r.crowdOGs[i], tr.ogs)
		}
		trs = append(trs, tr)
		over = append(over, r.crowdMS[i]-tr.total)
		traced += tr.total
		untraced += r.crowdMS[i]
	}
	t.ingestLayers(trs)
	t.set("server.overhead_ms", median(over))
	t.finish(traced, untraced, len(trs))
	return nil
}

func (r *runner) traceFeed(appReps []reply, predDoc, knnDoc []byte) error {
	t := r.newTracer()
	db, closeDB, err := r.replayDB("replay")
	if err != nil {
		return err
	}
	defer closeDB()
	for _, it := range r.corpus {
		if _, err := db.IngestSegment(it.stream, it.seg); err != nil {
			return err
		}
	}
	db.QuiesceIndex()
	cfg := serverConfig().STRG
	svc, err := feed.Open(feed.Options{Dir: filepath.Join(r.dir, "replay-feeds"), DB: db, STRG: &cfg})
	if err != nil {
		return err
	}
	defer svc.Close()
	var subs []*feed.Subscription
	for _, doc := range [][]byte{predDoc, knnDoc} {
		q, err := query.Parse(doc)
		if err != nil {
			return err
		}
		sub, err := svc.Engine().Register(q)
		if err != nil {
			return err
		}
		subs = append(subs, sub)
	}
	pred := subs[0]
	var meta feed.Meta
	if err := json.Unmarshal(r.feed.meta, &struct {
		Meta *feed.Meta `json:"meta"`
	}{&meta}); err != nil {
		return err
	}
	f, err := svc.Open(feedID, meta)
	if err != nil {
		return err
	}
	online := strg.NewOnlineBuilder(cfg)
	var appMS, commitMS, dispatchMS, onlineMS []float64
	rag0, track0, err := histSums()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	committed, epochs := 0, 0
	var traced, untraced float64
	pos := 0
	for i, rep := range appReps {
		if i >= traceAppends || !rep.ok() {
			break
		}
		frames := r.feed.raw[pos:min(pos+feedBatch, len(r.feed.raw))]
		pos += len(frames)
		for _, fr := range frames {
			t0 := time.Now()
			online.AddFrame(fr)
			onlineMS = append(onlineMS, msSince(t0))
		}
		wake := pred.Wait()
		t0 := time.Now()
		res, err := f.Append(frames)
		if err != nil {
			return fmt.Errorf("replaying append %d: %w", i, err)
		}
		ms := msSince(t0)
		ret := time.Now()
		appMS = append(appMS, ms)
		traced += ms
		untraced += r.appendMS[i]
		if !res.Flushed {
			continue
		}
		epochs++
		committed = pos
		commitMS = append(commitMS, ms)
		select {
		case <-wake:
			dispatchMS = append(dispatchMS, max(0, msSince(ret)))
		case <-time.After(time.Second):
			// The epoch held no OG the predicate matches.
		}
	}
	runtime.ReadMemStats(&m1)
	rag1, track1, err := histSums()
	if err != nil {
		return err
	}
	// Epoch commits run strg.Build inside Append; the pipeline's own
	// phase histograms split their time. Allocation covers the whole
	// append path, preview tracking included.
	t.set("rag.build_ms_per_frame", ratio((rag1-rag0)*1000, float64(committed)))
	t.set("strg.track_ms_per_segment", ratio((track1-track0)*1000, float64(epochs)))
	t.set("strg.alloc_mb_per_segment", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), float64(epochs)))
	t.set("feed.append_ms", median(appMS))
	t.set("feed.commit_ms", median(commitMS))
	t.set("feed.dispatch_ms", median(dispatchMS))
	t.set("strg.online_ms_per_frame", median(onlineMS))
	t.set("server.overhead_ms", median(r.appendMS[:len(appMS)])-median(appMS))
	t.set("strg.temporal_edges", float64(r.feedEdges))
	t.set("strg.ogs_per_segment", ratio(float64(len(r.ref.ogs)-r.corpusOGs), float64(r.feedEpochs)))
	t.finish(traced, untraced, len(appMS))
	return nil
}
