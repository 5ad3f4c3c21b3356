package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"strgindex/internal/query"
	"strgindex/internal/strg"
	"strgindex/internal/video"
)

// Input sizes. Every workload builds the same kind of query corpus at
// set-up, so set-up time is comparable across workloads.
const (
	// corpusSegsPerProfile segments of each Table 1 profile, at the
	// profiles' own shape (24 frames, 2 objects per segment).
	corpusSegsPerProfile = 12
	// poolSize is the number of distinct query trajectories and of
	// distinct select predicates; requests draw from it with repetition.
	poolSize = 1024
	// knnK is k for every similarity query.
	knnK = 10
	// crowdedFrames is the length of an ingest_crowded segment;
	// crowded3PerSecond 3-object and crowded4PerSecond 4-object segments
	// per second of --seconds make up its list.
	crowdedFrames     = 12
	crowded3PerSecond = 4.5
	crowded4PerSecond = 1
	// sceneSeed fixes the rendered video scenes (see sceneSeed's use).
	sceneSeed = 1
	// feedSegFrames and feedObjects shape the live feed's motion bursts;
	// feedGapFrames object-free frames follow each burst so the preview
	// tracker goes quiescent and an epoch can commit.
	feedSegFrames = 24
	feedObjects   = 2
	feedGapFrames = 8
	// feedBatch frames go in one append.
	feedBatch = 8
)

// subSeed derives an independent seed for one named input stream.
func subSeed(seed int64, tag string, i int) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	for _, c := range tag {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return int64(h >> 1)
}

// ingestItem is one POST /v1/segments request.
type ingestItem struct {
	stream string
	seg    *video.Segment
	body   []byte
}

func newIngestItem(stream string, seg *video.Segment) (ingestItem, error) {
	body, err := json.Marshal(map[string]any{"stream": stream, "segment": seg})
	if err != nil {
		return ingestItem{}, err
	}
	return ingestItem{stream: stream, seg: seg, body: body}, nil
}

// profileStream renders one generated stream of a Table 1 profile with
// the given shape.
func profileStream(p video.StreamProfile, segs, objects, frames int, seed int64) (*video.Stream, error) {
	p.NumObjects = segs * objects
	p.ObjectsPerSegment = objects
	p.SegmentFrames = frames
	return video.GenerateStream(p, seed)
}

// Scene content — the corpus, the crowded scenes and the feed — is
// rendered from the fixed sceneSeed; --seed draws everything sent over
// it: which trajectories and predicates the queries use and their
// jitter, the request order, the crowded list's order and the standing
// k-NN query. Tracking cost per scene is heavy-tailed (a crowded segment
// takes tens of ms to seconds on a 2-CPU host), so redrawing the scenes
// per seed would make seed-to-seed spread swamp every bound; the request
// streams are drawn from thousands of choices and average out.

// corpusItems is the query corpus, interleaved across the four profiles
// (one stream per profile).
func corpusItems() ([]ingestItem, error) {
	profiles := video.StreamProfiles()
	streams := make([]*video.Stream, len(profiles))
	for i, p := range profiles {
		s, err := profileStream(p, corpusSegsPerProfile, p.ObjectsPerSegment, p.SegmentFrames, subSeed(sceneSeed, "corpus", i))
		if err != nil {
			return nil, err
		}
		streams[i] = s
	}
	var out []ingestItem
	for j := 0; j < corpusSegsPerProfile; j++ {
		for i, s := range streams {
			it, err := newIngestItem(profiles[i].Name, s.Segments[j])
			if err != nil {
				return nil, err
			}
			out = append(out, it)
		}
	}
	return out, nil
}

// crowdSpec is one ingest_crowded segment, rendered on demand.
type crowdSpec struct {
	pos     int // list position: names the segment
	profile int
	objects int
	scene   int // scene number within its object count
}

// crowdedList is the ingest_crowded work list, sized by the window: the
// profiles in rotation, 3- and 4-object scenes, in seeded order.
func crowdedList(seed int64, seconds int) []crowdSpec {
	n3 := int(math.Ceil(crowded3PerSecond * float64(seconds)))
	n4 := int(math.Ceil(crowded4PerSecond * float64(seconds)))
	np := len(video.StreamProfiles())
	var out []crowdSpec
	for i := 0; i < n3; i++ {
		out = append(out, crowdSpec{profile: i % np, objects: 3, scene: i})
	}
	for i := 0; i < n4; i++ {
		out = append(out, crowdSpec{profile: i % np, objects: 4, scene: i})
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "crowded", 0)))
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	for i := range out {
		out[i].pos = i
	}
	return out
}

// item renders the segment and its request body.
func (c crowdSpec) item() (ingestItem, error) {
	p := video.StreamProfiles()[c.profile]
	s, err := profileStream(p, 1, c.objects, crowdedFrames, subSeed(sceneSeed, fmt.Sprintf("crowded-%d", c.objects), c.scene))
	if err != nil {
		return ingestItem{}, err
	}
	seg := s.Segments[0]
	seg.Name = fmt.Sprintf("crowd-%05d", c.pos)
	return newIngestItem("crowd-"+p.Name, seg)
}

// feedStream is the live feed: bursts of motion from one Lab1 camera,
// each followed by object-free frames, numbered feed-globally.
type feedStream struct {
	meta   []byte   // the NDJSON meta line
	frames [][]byte // one encoded frame per line
	raw    []video.Frame
	w, h   float64
	fps    float64
}

func newFeedStream(bursts int) (*feedStream, error) {
	var p video.StreamProfile
	for _, q := range video.StreamProfiles() {
		if q.Name == "Lab1" {
			p = q
		}
	}
	s, err := profileStream(p, bursts, feedObjects, feedSegFrames, subSeed(sceneSeed, "feed", 0))
	if err != nil {
		return nil, err
	}
	first := s.Segments[0]
	fs := &feedStream{w: first.Width, h: first.Height, fps: first.FPS}
	fs.meta, err = json.Marshal(map[string]any{"meta": map[string]float64{"width": fs.w, "height": fs.h, "fps": fs.fps}})
	if err != nil {
		return nil, err
	}
	for i, seg := range s.Segments {
		idle, err := video.Generate(video.SceneConfig{
			Name: fmt.Sprintf("idle-%d", i), Width: fs.w, Height: fs.h, FPS: fs.fps,
			Frames: feedGapFrames, BackgroundRows: 3, BackgroundCols: 4, Jitter: 0.8,
			Seed: subSeed(sceneSeed, "feed-idle", i),
		})
		if err != nil {
			return nil, err
		}
		for _, f := range append(append([]video.Frame(nil), seg.Frames...), idle.Frames...) {
			f.Index = len(fs.raw)
			b, err := json.Marshal(&f)
			if err != nil {
				return nil, err
			}
			fs.raw = append(fs.raw, f)
			fs.frames = append(fs.frames, b)
		}
	}
	return fs, nil
}

// epochSegment is the segment the server commits for frames [from, to)
// of the feed: renumbered from zero under the epoch's name.
func (fs *feedStream) epochSegment(epoch, from, to int) *video.Segment {
	frames := make([]video.Frame, to-from)
	copy(frames, fs.raw[from:to])
	for i := range frames {
		frames[i].Index = i
	}
	return &video.Segment{
		Name: fmt.Sprintf("%s/%06d", feedID, epoch), Width: fs.w, Height: fs.h, FPS: fs.fps, Frames: frames,
	}
}

// queryKind is one class of /v1/query document.
type queryKind int

const (
	qKNN queryKind = iota
	qExact
	qSelect
	qComposed
	numKinds
)

var kindNames = [numKinds]string{"knn", "exact", "select", "composed"}

// queryPools holds the distinct query documents requests draw from,
// raw and parsed: trajectories are jittered copies of corpus OG tracks,
// where trees a box around a point some corpus OG passes plus that OG's
// heading.
type queryPools struct {
	docs   [numKinds][][]byte
	parsed [numKinds][]*query.Query
}

func rect(x, y, r float64) map[string]float64 {
	return map[string]float64{"x0": x - r, "y0": y - r, "x1": x + r, "y1": y + r}
}

func headingDir(og *strg.OG) string {
	a := query.MeanDirection(og)
	dirs := []string{"east", "south", "west", "north"}
	i := int(math.Round(a/(math.Pi/2))) % 4
	if i < 0 {
		i += 4
	}
	return dirs[i]
}

func newQueryPools(seed int64, ogs []*strg.OG) (*queryPools, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "pools", 0)))
	qp := &queryPools{}
	for i := 0; i < poolSize; i++ {
		og := ogs[rng.Intn(len(ogs))]
		seq := og.Sequence()
		tr := make([][2]float64, len(seq))
		for j, v := range seq {
			tr[j] = [2]float64{v[0] + rng.NormFloat64()*3, v[1] + rng.NormFloat64()*3}
		}

		wog := ogs[rng.Intn(len(ogs))]
		c := wog.Centroids[rng.Intn(len(wog.Centroids))]
		box := rect(c.X, c.Y, 15+rng.Float64()*20)
		where := map[string]any{"and": []any{
			map[string]any{"passes_through": box},
			map[string]any{"heading": map[string]any{"dir": headingDir(wog)}},
		}}
		sim := map[string]any{"trajectory": tr, "k": knnK}
		exact := map[string]any{"trajectory": tr, "k": knnK, "exact": true}
		docs := [numKinds]map[string]any{
			qKNN:      {"similar": sim},
			qExact:    {"similar": exact},
			qSelect:   {"where": where},
			qComposed: {"where": map[string]any{"passes_through": box}, "similar": sim},
		}
		for k, d := range docs {
			b, err := json.Marshal(d)
			if err != nil {
				return nil, err
			}
			q, err := query.Parse(b)
			if err != nil {
				return nil, fmt.Errorf("generated %s query does not parse: %w", kindNames[k], err)
			}
			qp.docs[k] = append(qp.docs[k], b)
			qp.parsed[k] = append(qp.parsed[k], q)
		}
	}
	return qp, nil
}

// matcherFor compiles a standing-query document the way the server does.
func (qp *queryPools) matcherFor(doc []byte) (*query.Matcher, error) {
	q, err := query.Parse(doc)
	if err != nil {
		return nil, err
	}
	return query.NewMatcher(q, nil)
}
