package index

import (
	"math"
	"math/rand"

	"bytes"
	"context"
	"encoding/gob"
	"strgindex/internal/dist"
	"testing"
)

// TestColumnarOnOffByteIdentical is the tentpole's acceptance check: the
// columnar layout with its batched kernel and quantized tier must return
// byte-identical results AND byte-identical SearchStats to the
// pointer-chasing per-pair path, at every worker count and search mode.
func TestColumnarOnOffByteIdentical(t *testing.T) {
	seqs := detSequences(150, 91)
	queries := detSequences(10, 92)
	for _, workers := range []int{0, 1, 2, 4} {
		// SearchStats legitimately vary with the worker count (the pruning
		// threshold evolves with scan interleaving), so the reference runs
		// at the same worker count — only the layout differs.
		ref := buildCascadeTree(t, seqs, workers, func(c *Config) { c.DisableColumnar = true })
		tr := buildCascadeTree(t, seqs, workers, nil)
		for qi, q := range queries {
			for _, k := range []int{1, 5, 20} {
				sameResults(t, labelf("workers=%d q=%d k=%d KNN", workers, qi, k),
					tr.KNN(nil, q, k), ref.KNN(nil, q, k))
				sameResults(t, labelf("workers=%d q=%d k=%d KNNExact", workers, qi, k),
					tr.KNNExact(nil, q, k), ref.KNNExact(nil, q, k))
			}
			for _, radius := range []float64{30, 150, 500} {
				sameResults(t, labelf("workers=%d q=%d r=%v Range", workers, qi, radius),
					tr.Range(nil, q, radius), ref.Range(nil, q, radius))
			}
			// The quant tier folds into the envelope stage by design, so
			// the full stats structs must match, not just the results.
			gotR, gotSt, err := tr.KNNExactStats(nil, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			wantR, wantSt, err := ref.KNNExactStats(nil, q, 7)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, labelf("workers=%d q=%d stats-knn", workers, qi), gotR, wantR)
			if gotSt != wantSt {
				t.Fatalf("workers=%d q=%d: SearchStats differ: columnar %+v, reference %+v",
					workers, qi, gotSt, wantSt)
			}
			_, gotRg, err := tr.RangeStatsCtx(context.Background(), nil, q, 150)
			if err != nil {
				t.Fatal(err)
			}
			_, wantRg, err := ref.RangeStatsCtx(context.Background(), nil, q, 150)
			if err != nil {
				t.Fatal(err)
			}
			if gotRg != wantRg {
				t.Fatalf("workers=%d q=%d: Range SearchStats differ: columnar %+v, reference %+v",
					workers, qi, gotRg, wantRg)
			}
		}
	}
}

// TestColumnarAfterChurn: inserts after construction (whose records carry
// codes from a grid fitted earlier, or none at all) and splits (which
// refit) keep the columnar tree byte-identical to the reference.
func TestColumnarAfterChurn(t *testing.T) {
	seqs := detSequences(60, 93)
	extra := detSequences(60, 94)
	queries := detSequences(6, 95)
	build := func(mut func(*Config)) *Tree[int] {
		tr := buildCascadeTree(t, seqs, 2, mut)
		for i, s := range extra {
			if err := tr.Insert(nil, s, 1000+i); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ref := build(func(c *Config) { c.DisableColumnar = true })
	tr := build(nil)
	for qi, q := range queries {
		sameResults(t, labelf("q=%d KNNExact", qi), tr.KNNExact(nil, q, 9), ref.KNNExact(nil, q, 9))
		sameResults(t, labelf("q=%d Range", qi), tr.Range(nil, q, 200), ref.Range(nil, q, 200))
	}
}

// TestColumnarSnapshotCrossRestore: a packed-columnar (v2) snapshot loads
// into both columnar and non-columnar trees, a nested-Seqs (v1-form)
// snapshot loads into both, and all four restores answer queries
// byte-identically — through a gob round trip, as core persistence does.
func TestColumnarSnapshotCrossRestore(t *testing.T) {
	seqs := detSequences(80, 98)
	queries := detSequences(5, 99)
	baseCfg := Config{NumClusters: 5, Seed: 11, MaxLeafEntries: 16}
	colTree := buildCascadeTree(t, seqs, 1, nil)
	rowTree := buildCascadeTree(t, seqs, 1, func(c *Config) { c.DisableColumnar = true })

	colSnap, rowSnap := colTree.Snapshot(), rowTree.Snapshot()
	for _, cl := range colSnap.Roots[0].Clusters {
		if cl.Seqs != nil || cl.ColLens == nil {
			t.Fatal("columnar tree did not emit the packed encoding")
		}
	}
	for _, cl := range rowSnap.Roots[0].Clusters {
		if cl.Seqs == nil || cl.ColLens != nil {
			t.Fatal("non-columnar tree did not emit the nested encoding")
		}
	}

	for _, tc := range []struct {
		name    string
		snap    Snapshot[int]
		disable bool
	}{
		{"packed->columnar", colSnap, false},
		{"packed->row", colSnap, true},
		{"nested->columnar", rowSnap, false},
		{"nested->row", rowSnap, true},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&tc.snap); err != nil {
			t.Fatal(err)
		}
		var decoded Snapshot[int]
		if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
			t.Fatal(err)
		}
		cfg := baseCfg
		cfg.DisableColumnar = tc.disable
		restored, err := FromSnapshot(decoded, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if restored.Len() != colTree.Len() {
			t.Fatalf("%s: Len = %d, want %d", tc.name, restored.Len(), colTree.Len())
		}
		for qi, q := range queries {
			sameResults(t, labelf("%s q=%d", tc.name, qi),
				restored.KNNExact(nil, q, 6), colTree.KNNExact(nil, q, 6))
			sameResults(t, labelf("%s q=%d range", tc.name, qi),
				restored.Range(nil, q, 150), colTree.Range(nil, q, 150))
		}
	}
}

// TestColumnarSnapshotRejectsTruncatedBlock: a packed snapshot whose
// column block is shorter than its lengths claim is refused, not sliced
// out of range or silently zero-filled.
func TestColumnarSnapshotRejectsTruncatedBlock(t *testing.T) {
	tr := buildCascadeTree(t, detSequences(30, 100), 1, nil)
	snap := tr.Snapshot()
	cl := &snap.Roots[0].Clusters[0]
	cl.ColData = cl.ColData[:len(cl.ColData)-1]
	if _, err := FromSnapshot(snap, Config{NumClusters: 5, Seed: 11, MaxLeafEntries: 16}); err == nil {
		t.Fatal("truncated column block accepted")
	}
}

// ringSequences places tight trajectories on a circle: every sequence has
// (nearly) the same gap-sum, so the O(1) quick bound cannot separate them,
// but their envelopes are far apart along both axes — the workload where
// the envelope tier, and hence its quantized shadow, does the pruning.
func ringSequences(n int, seed int64) []dist.Sequence {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dist.Sequence, n)
	for i := range out {
		ang := 2 * math.Pi * float64(i) / float64(n)
		cx, cy := 300*math.Cos(ang), 300*math.Sin(ang)
		s := make(dist.Sequence, 6)
		for j := range s {
			s[j] = dist.Vec{cx + rng.Float64()*4, cy + rng.Float64()*4}
		}
		out[i] = s
	}
	return out
}

// TestQuantTierFires: the tier must actually prune on an
// envelope-separable workload — the bit-identity tests above would pass
// trivially if the tier never ran — and its firing must leave results and
// SearchStats identical to the non-columnar reference.
func TestQuantTierFires(t *testing.T) {
	// One big leaf: leaf-level bounds cannot skip anything, so every far
	// record must die in the record-level cascade.
	oneLeaf := func(c *Config) { c.NumClusters = 1; c.MaxLeafEntries = 500 }
	seqs := ringSequences(120, 101)
	tr := buildCascadeTree(t, seqs, 1, oneLeaf)
	ref := buildCascadeTree(t, seqs, 1, func(c *Config) { oneLeaf(c); c.DisableColumnar = true })
	queries := ringSequences(8, 102)
	before := QuantPruned()
	for qi, q := range queries {
		gotR, gotSt, err := tr.KNNExactStats(nil, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		wantR, wantSt, err := ref.KNNExactStats(nil, q, 3)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, labelf("q=%d", qi), gotR, wantR)
		if gotSt != wantSt {
			t.Fatalf("q=%d: SearchStats differ with quant tier firing: %+v vs %+v", qi, gotSt, wantSt)
		}
		if gotSt.LBEnvelopePruned == 0 {
			t.Fatalf("q=%d: ring workload exercised no envelope pruning (%+v)", qi, gotSt)
		}
	}
	if d := QuantPruned() - before; d == 0 {
		t.Fatal("quantized tier pruned nothing across 8 ring queries")
	} else {
		t.Logf("quant tier pruned %d records", d)
	}
}
