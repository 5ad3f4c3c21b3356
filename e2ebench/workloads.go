package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Workload shapes.
const (
	// probeRate is the open-loop probe client's request rate per second
	// (query_mix and ingest_crowded).
	probeRate = 20
	// latenessBound flags a run whose open-loop generator sent its p90
	// request later than this after its due time.
	latenessBound = 250 * time.Millisecond
	// probeSpin: the probe generator wakes this long before a request is
	// due and spins to the due time, so the host's timer wake-up latency
	// does not make the generator late.
	probeSpin = time.Millisecond
	// feedID names the live feed.
	feedID = "cam0"
)

// probeKinds is the probe client's repeating request pattern. Untraced
// runs send only lock-free k-NN: a select waits for the ingest write lock
// (the whole of strg.Build), and on one connection every request queued
// behind it waits too, so a select-bearing probe saturates under crowded
// ingest and its latency grows with the run length instead of settling.
// The traced run adds one select in five to measure that stall
// (core.select_blocked_ms), timed from its send time.
func (r *runner) probeKinds() []queryKind {
	if r.opt.trace {
		return []queryKind{qKNN, qKNN, qKNN, qKNN, qSelect}
	}
	return []queryKind{qKNN}
}

// queryRec is one query request and its outcome.
type queryRec struct {
	kind queryKind
	idx  int
	ms   float64
	rep  reply
	// n and total bound the committed OGs when the reply was produced:
	// the first n are in the reference; at most total exist.
	n, total int
	// lateMS is how late an open-loop request was sent; sendMS is its
	// latency from the send.
	lateMS, sendMS float64
}

// checkQueries validates every reply, parsing each distinct answer once.
func (r *runner) checkQueries(recs []queryRec) {
	type key struct {
		kind   queryKind
		idx    int
		n, tot int
	}
	seen := make(map[key]map[string]bool)
	bad := 0
	for _, q := range recs {
		if !q.rep.ok() {
			continue
		}
		k := key{q.kind, q.idx, q.n, q.total}
		qr, err := parseReply(q.rep.body)
		if err != nil {
			r.res.fail("%s query %d: %v", kindNames[q.kind], q.idx, err)
			continue
		}
		sig, _ := json.Marshal(qr.hits())
		if seen[k][string(sig)] {
			continue
		}
		if err := r.ref.checkReply(r.pools, q.kind, q.idx, q.rep.body, q.n, q.total); err != nil {
			bad++
			r.res.fail("%s query %d: %v", kindNames[q.kind], q.idx, err)
			continue
		}
		if seen[k] == nil {
			seen[k] = make(map[string]bool)
		}
		seen[k][string(sig)] = true
	}
	if bad > 0 {
		r.res.note("%d query replies disagree with the reference", bad)
	}
}

// count books one request outcome.
func (rr *runResult) count(rep reply) {
	rr.attempted++
	if !rep.ok() {
		rr.failed++
	}
}

// probeLoop is the open-loop probe client: requests due every
// 1/probeRate seconds from start until stop closes, each timed from its
// due time so a stall also charges the requests queued behind it.
// started reports the ingest count at reply time (nil on a static
// corpus).
func (r *runner) probeLoop(start time.Time, stop <-chan struct{}, started func() int) (recs []queryRec, startedAt []int) {
	cn := newConn(r.srv.base, time.Minute)
	defer cn.close()
	rng := rand.New(rand.NewSource(subSeed(r.opt.seed, "probe", 0)))
	interval := time.Second / probeRate
	kinds := r.probeKinds()
	for j := 0; ; j++ {
		due := start.Add(time.Duration(j) * interval)
		t := time.NewTimer(time.Until(due) - probeSpin)
		select {
		case <-stop:
			t.Stop()
			return recs, startedAt
		case <-t.C:
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		kind := kinds[j%len(kinds)]
		idx := rng.Intn(poolSize)
		sent := time.Now()
		rep := cn.post(context.Background(), "/v1/query", "application/json", r.pools.docs[kind][idx])
		done := time.Now()
		recs = append(recs, queryRec{kind: kind, idx: idx, rep: rep, n: r.corpusOGs, total: r.corpusOGs,
			ms:     float64(done.Sub(due).Nanoseconds()) / 1e6,
			lateMS: float64(sent.Sub(due).Nanoseconds()) / 1e6,
			sendMS: float64(done.Sub(sent).Nanoseconds()) / 1e6})
		if started != nil {
			startedAt = append(startedAt, started())
		}
	}
}

// probeResults books the probe stream: latencies, lateness and the
// lateness flag.
func (r *runner) probeResults(recs []queryRec) {
	var byKind [numKinds][]float64
	var lateMS, selSend []float64
	for _, q := range recs {
		r.res.count(q.rep)
		lateMS = append(lateMS, q.lateMS)
		if !q.rep.ok() {
			r.res.fail("probe %s query %d: %v", kindNames[q.kind], q.idx, q.rep)
			continue
		}
		r.res.probeMS = append(r.res.probeMS, q.ms)
		byKind[q.kind] = append(byKind[q.kind], q.ms)
		if q.kind == qSelect {
			selSend = append(selSend, q.sendMS)
		}
	}
	r.res.note("%s", latencySummary("probe (open loop, from due time)", r.res.probeMS))
	if len(byKind[qSelect]) > 0 {
		for _, k := range []queryKind{qKNN, qSelect} {
			r.res.note("%s", latencySummary("  probe "+kindNames[k], byKind[k]))
		}
		r.res.note("%s", latencySummary("  probe select from send", selSend))
	}
	r.selSendMS = selSend
	r.res.note("%s", latencySummary("probe generator lateness", lateMS))
	if len(lateMS) > 0 {
		r.lateP90 = quantile(lateMS, 0.9)
		if r.lateP90 > float64(latenessBound.Milliseconds()) {
			r.res.note("FLAG: open-loop generator p90 lateness %.1fms exceeds the %v bound", r.lateP90, latenessBound)
		}
	}
	r.probeRecs = recs
}

// queryMix: read-only. One closed-loop client cycles k-NN, exact k-NN,
// select and composed documents with trajectories and predicates drawn
// (with repetition) from the seeded pools; the open-loop probe client
// runs beside it.
func (r *runner) queryMix() error {
	if err := r.setup(); err != nil {
		return err
	}
	if err := r.scrapeBefore(); err != nil {
		return err
	}
	var recs []queryRec
	var probes []queryRec
	start := time.Now()
	deadline := start.Add(time.Duration(r.opt.seconds) * time.Second)
	stop := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		probes, _ = r.probeLoop(start, stop, nil)
	}()
	cn := newConn(r.srv.base, time.Minute)
	rng := rand.New(rand.NewSource(subSeed(r.opt.seed, "mix", 0)))
	for i := 0; time.Now().Before(deadline); i++ {
		kind := queryKind(i % int(numKinds))
		idx := rng.Intn(poolSize)
		t0 := time.Now()
		rep := cn.post(context.Background(), "/v1/query", "application/json", r.pools.docs[kind][idx])
		recs = append(recs, queryRec{kind: kind, idx: idx, ms: msSince(t0), rep: rep,
			n: r.corpusOGs, total: r.corpusOGs})
	}
	cn.close()
	r.res.elapsed = time.Since(start).Seconds()
	close(stop)
	<-probeDone
	if err := r.scrapeAfter(); err != nil {
		return err
	}
	r.mixRecs = recs
	var byKind [numKinds][]float64
	distinct := make(map[int]bool)
	similar := 0
	for _, q := range recs {
		r.res.count(q.rep)
		if !q.rep.ok() {
			r.res.fail("%s query %d: %v", kindNames[q.kind], q.idx, q.rep)
			continue
		}
		r.res.work++
		r.res.opMS = append(r.res.opMS, q.ms)
		byKind[q.kind] = append(byKind[q.kind], q.ms)
		if q.kind != qSelect {
			similar++
			distinct[q.idx] = true
		}
	}
	for k := range byKind {
		r.res.note("%s", latencySummary(kindNames[k], byKind[k]))
	}
	r.res.note("similarity requests: %d over %d distinct trajectories (repeat share %.3f)",
		similar, len(distinct), 1-ratio(float64(len(distinct)), float64(similar)))
	r.probeResults(probes)
	r.checkQueries(append(recs, probes...))
	r.checkStats(r.srv, len(r.corpus), r.corpusOGs)
	if r.opt.trace {
		return r.traceQueryMix()
	}
	return nil
}

// ingestCrowded: one closed-loop client POSTs the whole crowded list, so
// every commit does the same work, while the open-loop probe client runs
// beside it. The window is the list's ingest time (the list is sized so
// that this is about --seconds on a 2-CPU host).
func (r *runner) ingestCrowded() error {
	if err := r.setup(); err != nil {
		return err
	}
	list := crowdedList(r.opt.seed, r.opt.seconds)
	r.crowd = list
	// Every segment is rendered before the window, so the load generator
	// does no scene rendering while the server is measured.
	items := make([]ingestItem, len(list))
	for i, spec := range list {
		it, err := spec.item()
		if err != nil {
			return err
		}
		items[i] = it
	}
	if err := r.scrapeBefore(); err != nil {
		return err
	}
	// started counts ingests sent, for the probe replies' OG bound.
	var mu sync.Mutex
	started := 0
	var segOGs []int
	var ingMS []float64
	var ingReps []reply

	start := time.Now()
	stop := make(chan struct{})
	probeDone := make(chan struct{})
	var recs []queryRec
	var startedAt []int
	go func() {
		defer close(probeDone)
		recs, startedAt = r.probeLoop(start, stop, func() int {
			mu.Lock()
			defer mu.Unlock()
			return started
		})
	}()
	cn := newConn(r.srv.base, 2*time.Minute)
	for i, it := range items {
		if time.Since(start) > crowdedCap {
			r.res.fail("ingest_crowded stopped after %d of %d segments at the %v cap", i, len(list), crowdedCap)
			break
		}
		mu.Lock()
		started = i + 1
		mu.Unlock()
		t0 := time.Now()
		rep := cn.post(context.Background(), "/v1/segments", "application/json", it.body)
		ms := msSince(t0)
		var ir ingestReply
		if rep.ok() {
			if err := json.Unmarshal(rep.body, &ir); err != nil {
				rep.err = fmt.Errorf("decoding ingest reply: %w", err)
			}
		}
		segOGs = append(segOGs, ir.OGs)
		ingMS = append(ingMS, ms)
		ingReps = append(ingReps, rep)
	}
	cn.close()
	close(stop)
	<-probeDone
	r.res.elapsed = time.Since(start).Seconds()
	if err := r.scrapeAfter(); err != nil {
		return err
	}

	// The OG bound of an open-loop reply: everything acknowledged plus
	// the ingest in flight when it returned.
	prefix := make([]int, len(segOGs)+1)
	for i, n := range segOGs {
		prefix[i+1] = prefix[i] + n
	}
	for i := range recs {
		recs[i].total = r.corpusOGs + prefix[min(startedAt[i], len(segOGs))]
	}
	for i, rep := range ingReps {
		r.res.count(rep)
		if !rep.ok() {
			r.res.fail("crowded segment %d: %v", i, rep)
			continue
		}
		r.res.work++
		r.res.opMS = append(r.res.opMS, ingMS[i])
	}
	r.crowdMS, r.crowdOGs = ingMS, segOGs
	r.res.note("%s", latencySummary("ingest", ingMS))
	r.probeResults(recs)
	r.checkQueries(recs)
	r.checkStats(r.srv, len(r.corpus)+len(ingReps), r.corpusOGs+prefix[len(segOGs)])
	// The replies of the first crowdedChecked segments are checked
	// against the reference pipeline; the traced run checks every one
	// it replays.
	ref := newReference()
	for i := 0; i < min(crowdedChecked, len(segOGs)); i++ {
		ogs, edges, err := ref.add(items[i].seg)
		if err != nil {
			return err
		}
		var ir ingestReply
		if err := json.Unmarshal(ingReps[i].body, &ir); err == nil && (ir.OGs != len(ogs) || ir.TemporalEdges != edges) {
			r.res.fail("crowded segment %d: server %d OGs/%d edges, reference %d/%d", i, ir.OGs, ir.TemporalEdges, len(ogs), edges)
		}
	}
	if r.opt.trace {
		return r.traceIngest()
	}
	return nil
}

// crowdedChecked crowded segments per untraced run are rebuilt in-process
// to check the server's ingest replies; crowdedCap stops a pathologically
// slow list so the run still ends in time.
const (
	crowdedChecked = 4
	crowdedCap     = 120 * time.Second
)

// liveFeed: a -feeds server with a predicate and a k-NN subscription
// registered before the feed starts; one closed-loop appender POSTs
// NDJSON frame batches while one SSE consumer follows the predicate
// subscription.
func (r *runner) liveFeed() error {
	if err := r.setup("-feeds"); err != nil {
		return err
	}
	fs, err := newFeedStream(feedBursts)
	if err != nil {
		return err
	}
	predDoc := []byte(`{"where": {"longer_than": 2}}`)
	pred, err := r.subscribe(predDoc)
	if err != nil {
		return err
	}
	knnDoc := r.pools.docs[qKNN][0]
	knnSub, err := r.subscribe(knnDoc)
	if err != nil {
		return err
	}
	if err := r.scrapeBefore(); err != nil {
		return err
	}

	// The consumer follows the predicate subscription until cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sseConn := newConn(r.srv.base, 0)
	defer sseConn.close()
	fol := follow(ctx, sseConn, pred)

	type epochRec struct{ from, to int }
	var appMS []float64
	var appReps []reply
	epochSent := make(map[int]time.Time)
	var epochs []epochRec
	cn := newConn(r.srv.base, 2*time.Minute)
	start := time.Now()
	deadline := start.Add(time.Duration(r.opt.seconds) * time.Second)
	pos, flushFrom, frames := 0, 0, 0
	for time.Now().Before(deadline) && pos < len(fs.frames) {
		var meta []byte
		if pos == 0 {
			meta = fs.meta
		}
		body := ndjsonBatch(meta, fs.frames[pos:min(pos+feedBatch, len(fs.frames))])
		t0 := time.Now()
		rep := cn.post(context.Background(), "/v1/feeds/"+feedID+"/frames", "application/x-ndjson", body)
		appMS = append(appMS, msSince(t0))
		appReps = append(appReps, rep)
		if !rep.ok() {
			break
		}
		var ar struct {
			Accepted  int  `json:"accepted"`
			NextFrame int  `json:"next_frame"`
			Epoch     int  `json:"epoch"`
			Flushed   bool `json:"flushed"`
		}
		if err := json.Unmarshal(rep.body, &ar); err != nil {
			return fmt.Errorf("decoding append reply: %w", err)
		}
		frames += ar.Accepted
		pos = ar.NextFrame
		if ar.Flushed {
			epochSent[ar.Epoch-1] = t0
			epochs = append(epochs, epochRec{flushFrom, ar.NextFrame})
			flushFrom = ar.NextFrame
		}
	}
	r.res.elapsed = time.Since(start).Seconds()
	cn.close()
	if pos >= len(fs.frames) {
		r.res.note("WARNING: the feed ran out of frames before the window closed")
	}

	// Drain: wait until the consumer holds every event the subscription
	// has sequenced and the sequence has stopped moving (the dispatcher may
	// still hold queued deltas).
	last := uint64(0)
	for drainEnd := time.Now().Add(15 * time.Second); ; {
		var info struct {
			LastSeq uint64 `json:"last_seq"`
		}
		if err := r.srv.getJSON("/v1/subscriptions/"+pred, &info); err != nil {
			return err
		}
		cur, ferr := fol.state()
		if cur == info.LastSeq && info.LastSeq == last {
			break
		}
		if ferr != nil || time.Now().After(drainEnd) {
			r.res.fail("event stream stalled at %d of %d (%v)", cur, info.LastSeq, ferr)
			break
		}
		last = info.LastSeq
		time.Sleep(100 * time.Millisecond)
	}
	cancel()
	<-fol.done
	if err := r.scrapeAfter(); err != nil {
		return err
	}

	for i, rep := range appReps {
		r.res.count(rep)
		if !rep.ok() {
			r.res.fail("append %d: %v", i, rep)
			continue
		}
		r.res.opMS = append(r.res.opMS, appMS[i])
	}
	got := fol.log.events
	r.res.work = float64(frames)
	r.res.attempted += int64(len(got) + fol.log.gaps)
	r.res.failed += int64(fol.log.gaps)
	var deliv []float64
	for i, ev := range got {
		e, err := clipEpoch(ev.Clip)
		if err != nil {
			r.res.fail("event %d: %v", ev.Seq, err)
			continue
		}
		sent, ok := epochSent[e]
		if !ok {
			r.res.fail("event %d names epoch %d, which no append committed", ev.Seq, e)
			continue
		}
		deliv = append(deliv, float64(fol.at[i].Sub(sent).Nanoseconds())/1e6)
	}
	r.res.probeMS = deliv
	r.res.note("%s", latencySummary("append", appMS))
	r.res.note("%s", latencySummary("delivery", deliv))
	r.res.note("epochs=%d frames=%d events=%d", len(epochs), frames, len(got))

	// In-process replay of the committed epochs: the predicate events
	// must be exactly the matching new OGs, once each, in commit order.
	m, err := r.pools.matcherFor(predDoc)
	if err != nil {
		return err
	}
	var want []int
	for e, ep := range epochs {
		base := len(r.ref.ogs)
		ogs, edges, err := r.ref.add(fs.epochSegment(e, ep.from, ep.to))
		if err != nil {
			return err
		}
		r.feedEdges += edges
		for i, og := range ogs {
			if m.Match(og) {
				want = append(want, base+i)
			}
		}
	}
	if len(got) != len(want) {
		r.res.fail("predicate subscription delivered %d events, replay matches %d OGs", len(got), len(want))
	} else {
		for i := range want {
			if got[i].OGID != want[i] || got[i].Type != "match" {
				r.res.fail("event %d is %s og %d, replay expects match og %d", i+1, got[i].Type, got[i].OGID, want[i])
				break
			}
		}
	}
	if fol.log.gaps > 0 {
		r.res.fail("predicate stream had %d gap events", fol.log.gaps)
	}
	if fol.err != nil {
		r.res.fail("predicate stream: %v", fol.err)
	}
	r.checkStats(r.srv, len(r.corpus)+len(epochs), len(r.ref.ogs))
	if err := r.checkKNNSub(knnSub); err != nil {
		r.res.fail("k-NN subscription: %v", err)
	}
	r.feed, r.feedEpochs, r.appendMS = fs, len(epochs), appMS
	if r.opt.trace {
		return r.traceFeed(appReps, predDoc, knnDoc)
	}
	return nil
}

// feedBursts motion bursts make up the live feed: far more frames than
// a run appends, so the feed never runs dry.
const feedBursts = 400

// follower reads one subscription's live event stream, stamping each
// event with its arrival time. Its fields are the reader goroutine's
// until done closes; state is safe meanwhile.
type follower struct {
	mu   sync.Mutex
	log  eventLog
	at   []time.Time // arrival of log.events[i]
	err  error       // a broken stream or delivery contract
	done chan struct{}
}

// follow starts reading sub's events from the beginning until ctx ends.
func follow(ctx context.Context, cn *conn, sub string) *follower {
	f := &follower{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		err := f.read(ctx, cn, sub)
		if ctx.Err() != nil {
			err = nil // cancelled by the caller: the normal end
		}
		f.mu.Lock()
		f.err = err
		f.mu.Unlock()
	}()
	return f
}

func (f *follower) read(ctx context.Context, cn *conn, sub string) error {
	req, err := f.log.resumeRequest(cn.base, sub, false)
	if err != nil {
		return err
	}
	resp, err := cn.c.Do(req.WithContext(ctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: %s", resp.Status)
	}
	sr := newSSEReader(resp.Body)
	for {
		ev, err := sr.next()
		if err != nil {
			return err
		}
		at := time.Now()
		f.mu.Lock()
		n := len(f.log.events)
		err = f.log.apply(ev)
		if len(f.log.events) > n {
			f.at = append(f.at, at)
		}
		f.mu.Unlock()
		if err != nil {
			return err
		}
	}
}

// state reports the delivery cursor and any stream error so far.
func (f *follower) state() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.log.cursor, f.err
}

// clipEpoch extracts the epoch from a feed event clip such as
// "cam0/cam0/000012[3:21]".
func clipEpoch(clip string) (int, error) {
	s, _, ok := strings.Cut(clip, "[")
	if !ok {
		return 0, fmt.Errorf("clip %q has no frame range", clip)
	}
	i := strings.LastIndexByte(s, '/')
	if i < 0 || !strings.HasPrefix(s, feedID+"/"+feedID+"/") {
		return 0, fmt.Errorf("clip %q is not from feed %s", clip, feedID)
	}
	return strconv.Atoi(s[i+1:])
}

// subscribe registers a standing query and returns its ID.
func (r *runner) subscribe(doc []byte) (string, error) {
	cn := newConn(r.srv.base, time.Minute)
	defer cn.close()
	rep := cn.post(context.Background(), "/v1/subscriptions", "application/json", doc)
	if !rep.ok() {
		return "", fmt.Errorf("subscribe: %v", rep)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rep.body, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

// checkKNNSub drains the k-NN subscription once and checks its delivery
// contract: dense ids from 1, no gap, and a membership that never holds
// an OG twice or more than k OGs.
func (r *runner) checkKNNSub(id string) error {
	var l eventLog
	req, err := l.resumeRequest(r.srv.base, id, true)
	if err != nil {
		return err
	}
	resp, err := r.srv.ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sr := newSSEReader(resp.Body)
	member := make(map[int]bool)
	for {
		ev, err := sr.next()
		if err != nil {
			break
		}
		if err := l.apply(ev); err != nil {
			return err
		}
	}
	if l.gaps > 0 {
		return fmt.Errorf("%d gap events", l.gaps)
	}
	for _, e := range l.events {
		switch e.Type {
		case "enter":
			if member[e.OGID] {
				return fmt.Errorf("og %d entered twice", e.OGID)
			}
			member[e.OGID] = true
		case "leave":
			if !member[e.OGID] {
				return fmt.Errorf("og %d left without entering", e.OGID)
			}
			delete(member, e.OGID)
		default:
			return fmt.Errorf("unexpected %s event", e.Type)
		}
		if len(member) > knnK {
			return fmt.Errorf("%d members exceed k=%d", len(member), knnK)
		}
	}
	r.res.note("k-NN subscription: %d events, %d members", len(l.events), len(member))
	return nil
}
