package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"strgindex/internal/dist"
	"strgindex/internal/query"
	"strgindex/internal/strg"
	"strgindex/internal/video"
)

// reference is the in-process pipeline the server's answers are checked
// against: the same STRG construction and decomposition, OGs numbered in
// ingest order, and brute-force query evaluation over them.
type reference struct {
	cfg strg.Config
	ogs []*strg.OG
	// segOGs is the OG count of each added segment, in order.
	segOGs []int
}

func newReference() *reference { return &reference{cfg: strg.DefaultConfig()} }

// add runs one segment through the pipeline and returns its OGs and
// temporal-edge count.
func (r *reference) add(seg *video.Segment) ([]*strg.OG, int, error) {
	s, err := strg.Build(seg, r.cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("reference build %s: %w", seg.Name, err)
	}
	d := s.Decompose(r.cfg)
	r.ogs = append(r.ogs, d.OGs...)
	r.segOGs = append(r.segOGs, len(d.OGs))
	return d.OGs, s.NumTemporalEdges(), nil
}

// hit is one ranked answer.
type hit struct {
	ID   int
	Dist float64
}

// topK ranks the first n reference OGs passing keep (nil keeps all) by
// EGED_M distance to q — the index's key metric — ties broken by OG ID.
func (r *reference) topK(q dist.Sequence, k, n int, keep func(*strg.OG) bool) []hit {
	var hs []hit
	for i, og := range r.ogs[:n] {
		if keep != nil && !keep(og) {
			continue
		}
		hs = append(hs, hit{i, dist.EGEDMZero(q, og.Sequence())})
	}
	sort.Slice(hs, func(a, b int) bool {
		if hs[a].Dist != hs[b].Dist {
			return hs[a].Dist < hs[b].Dist
		}
		return hs[a].ID < hs[b].ID
	})
	if len(hs) > k {
		hs = hs[:k]
	}
	return hs
}

// selectIDs scans the first n reference OGs with the query's compiled
// where tree, in ingest order.
func (r *reference) selectIDs(q *query.Query, n int) ([]int, error) {
	m, err := query.NewMatcher(q, nil)
	if err != nil {
		return nil, err
	}
	var ids []int
	for i, og := range r.ogs[:n] {
		if m.Match(og) {
			ids = append(ids, i)
		}
	}
	return ids, nil
}

// queryReply is the part of the /v1/query envelope the checks read.
type queryReply struct {
	Matches []struct {
		OGID     int     `json:"og_id"`
		Distance float64 `json:"distance"`
	} `json:"matches"`
	Total     int  `json:"total"`
	Truncated bool `json:"truncated"`
}

func parseReply(body []byte) (*queryReply, error) {
	var qr queryReply
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, fmt.Errorf("decoding query reply: %w", err)
	}
	return &qr, nil
}

func (qr *queryReply) hits() []hit {
	hs := make([]hit, len(qr.Matches))
	for i, m := range qr.Matches {
		hs[i] = hit{m.OGID, m.Distance}
	}
	return hs
}

func sameHits(got, want []hit) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("match %d is og %d at %v, reference og %d at %v",
				i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
	return nil
}

// checkReply validates one /v1/query answer over a corpus whose first n
// reference OGs are known to be committed and whose total OG count was
// at most total when the reply was produced (n == total for a static
// corpus). OG IDs at or above n are new since the reference and are
// checked only for range.
func (r *reference) checkReply(pools *queryPools, kind queryKind, idx int, body []byte, n, total int) error {
	qr, err := parseReply(body)
	if err != nil {
		return err
	}
	q := pools.parsed[kind][idx]
	for _, m := range qr.Matches {
		if m.OGID < 0 || m.OGID >= total {
			return fmt.Errorf("og %d outside the %d committed OGs", m.OGID, total)
		}
	}
	known := func(hs []hit) []hit {
		var out []hit
		for _, h := range hs {
			if h.ID < n {
				out = append(out, h)
			}
		}
		return out
	}
	switch kind {
	case qExact:
		if n != total {
			return fmt.Errorf("exact k-NN is only checked on a static corpus")
		}
		return sameHits(qr.hits(), r.topK(q.Similar.Trajectory, q.Similar.K, n, nil))
	case qComposed:
		if n != total {
			return fmt.Errorf("composed k-NN is only checked on a static corpus")
		}
		m, err := query.NewMatcher(q, nil)
		if err != nil {
			return err
		}
		return sameHits(qr.hits(), r.topK(q.Similar.Trajectory, q.Similar.K, n, m.Match))
	case qSelect:
		want, err := r.selectIDs(q, n)
		if err != nil {
			return err
		}
		if qr.Truncated {
			return fmt.Errorf("select reply truncated at %d of %d", len(qr.Matches), qr.Total)
		}
		got := known(qr.hits())
		if len(got) != len(want) {
			return fmt.Errorf("select: %d matches among the first %d OGs, reference has %d", len(got), n, len(want))
		}
		for i := range got {
			if got[i].ID != want[i] || got[i].Dist != 0 {
				return fmt.Errorf("select match %d is og %d, reference og %d", i, got[i].ID, want[i])
			}
		}
		return nil
	case qKNN:
		// Algorithm 3 searches one cluster, so its answer is not the
		// global top-k; each reported distance must still be the exact
		// metric value, in ranking order.
		if len(qr.Matches) == 0 || len(qr.Matches) > q.Similar.K {
			return fmt.Errorf("k-NN returned %d matches for k=%d", len(qr.Matches), q.Similar.K)
		}
		for i, h := range qr.hits() {
			if i > 0 && h.Dist < qr.Matches[i-1].Distance {
				return fmt.Errorf("k-NN match %d out of distance order", i)
			}
			if h.ID < n {
				if d := dist.EGEDMZero(q.Similar.Trajectory, r.ogs[h.ID].Sequence()); d != h.Dist {
					return fmt.Errorf("k-NN og %d at %v, metric gives %v", h.ID, h.Dist, d)
				}
			}
		}
		return nil
	}
	return fmt.Errorf("unknown query kind %d", kind)
}
