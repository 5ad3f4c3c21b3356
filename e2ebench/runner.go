package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"
)

// setupRepeats is how many times each run builds its server and corpus;
// setup_s is their median. The last server serves the measured window.
const setupRepeats = 3

// runner holds one invocation's inputs, reference and live server.
type runner struct {
	opt       options
	dir       string
	corpus    []ingestItem
	ref       *reference
	corpusOGs int
	pools     *queryPools
	srv       *server
	setupS    []float64
	res       *runResult

	// Workload records the traced replay reuses.
	mixRecs    []queryRec
	probeRecs  []queryRec
	crowd      []crowdSpec
	crowdMS    []float64
	crowdOGs   []int
	lateP90    float64
	selSendMS  []float64
	feed       *feedStream
	feedEpochs int
	feedEdges  int
	appendMS   []float64

	// rssStop ends the window's resident-set sampling and returns it.
	rssStop func() []float64
}

func newRunner(o options, dir string) (*runner, error) {
	r := &runner{opt: o, dir: dir, ref: newReference(), res: &runResult{}}
	var err error
	if r.corpus, err = corpusItems(); err != nil {
		return nil, err
	}
	for _, it := range r.corpus {
		if _, _, err := r.ref.add(it.seg); err != nil {
			return nil, err
		}
	}
	r.corpusOGs = len(r.ref.ogs)
	if r.pools, err = newQueryPools(o.seed, r.ref.ogs); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *runner) close() {
	if r.srv != nil {
		r.srv.stop()
		r.srv = nil
	}
}

// ingestReply is the POST /v1/segments answer.
type ingestReply struct {
	Frames        int
	TemporalEdges int
	OGs           int
}

// setup starts a fresh server and ingests the corpus through
// POST /v1/segments, setupRepeats times; the timed span runs from
// process start to the last ingest reply. Every corpus reply and the
// final /v1/stats are checked against the reference.
func (r *runner) setup(extra ...string) error {
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		srv, err := startServer(r.opt.server, filepath.Join(r.dir, fmt.Sprintf("srv%d", i)), extra...)
		if err != nil {
			return err
		}
		c := newConn(srv.base, 2*time.Minute)
		replies := make([]reply, len(r.corpus))
		for j, it := range r.corpus {
			replies[j] = c.post(context.Background(), "/v1/segments", "application/json", it.body)
			if !replies[j].ok() {
				c.close()
				srv.stop()
				return fmt.Errorf("setup ingest of %s: %v", it.seg.Name, replies[j])
			}
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		c.close()
		// The reference checks run outside the timed span.
		for j, rep := range replies {
			var ir ingestReply
			if err := json.Unmarshal(rep.body, &ir); err != nil {
				r.res.fail("setup ingest reply %d: %v", j, err)
			} else if ir.OGs != r.ref.segOGs[j] {
				r.res.fail("setup segment %d: server made %d OGs, reference %d", j, ir.OGs, r.ref.segOGs[j])
			}
		}
		r.checkStats(srv, len(r.corpus), r.corpusOGs)
		if i < setupRepeats-1 {
			srv.stop()
		} else {
			r.srv = srv
		}
	}
	return nil
}

// checkStats compares GET /v1/stats with the expected totals.
func (r *runner) checkStats(srv *server, segments, ogs int) {
	var st serverStats
	if err := srv.getJSON("/v1/stats", &st); err != nil {
		r.res.fail("GET /v1/stats: %v", err)
		return
	}
	if st.Segments != segments || st.OGs != ogs {
		r.res.fail("/v1/stats has %d segments and %d OGs, reference %d and %d", st.Segments, st.OGs, segments, ogs)
	}
}

// scrapeBefore and scrapeAfter bracket the measured window: /metrics
// before and after, and the server's resident set sampled in between.
func (r *runner) scrapeBefore() error {
	s, err := r.srv.scrape()
	if err != nil {
		return err
	}
	r.res.before = s
	stop, done := make(chan struct{}), make(chan []float64, 1)
	go func(srv *server) { done <- srv.sampleRSS(stop) }(r.srv)
	r.rssStop = func() []float64 { close(stop); return <-done }
	return nil
}

func (r *runner) scrapeAfter() error {
	rss := r.rssStop()
	s, err := r.srv.scrape()
	if err != nil {
		return err
	}
	r.res.after = s
	if len(rss) == 0 {
		return fmt.Errorf("no resident-set sample of the server")
	}
	r.res.rssMB = quantile(rss, 0.9)
	hwm, err := r.srv.statusMB("VmHWM")
	if err != nil {
		return err
	}
	r.res.note("server resident set: p50 %.1f MB, p90 %.1f MB over %d samples; high-water mark %.1f MB",
		median(rss), r.res.rssMB, len(rss), hwm)
	return nil
}
