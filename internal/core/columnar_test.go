package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"
)

// TestGoldenColumnarOff runs the golden end-to-end corpus with the
// columnar layout disabled, at every pinned shard count: the committed
// corpus file was produced by the (default) columnar path, so a byte-equal
// answer set here is the system-level proof that the layout never moves a
// bit of any query answer.
func TestGoldenColumnarOff(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run TestGoldenE2E -update-golden first): %v", err)
	}
	for _, shards := range []int{1, 2, 4} {
		db := goldenBuildCfg(t, shards, func(c *Config) { c.Index.DisableColumnar = true })
		got := goldenQueries(t, db)
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, '\n')
		if string(raw) != string(want) {
			t.Fatalf("columnar-off corpus differs from golden at %d shards", shards)
		}
	}
}

// TestV1SnapshotStillLoads: a version-1 container — nested per-record
// Seqs, written before the packed columnar encoding existed — must load
// into a current (columnar-on) database and answer queries identically.
// The v1 bytes are produced honestly: a columnar-off tree emits exactly
// the v1 payload shape (gob omits the absent ColData/ColLens/ColDim
// fields), and the header version is rewritten to 1, which the CRC does
// not cover.
func TestV1SnapshotStillLoads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Index.MaxLeafEntries = 8
	cfg.Index.NumClusters = 2

	oldCfg := cfg
	oldCfg.Index.DisableColumnar = true
	old := Open(oldCfg)
	for i, seed := range []int64{201, 202} {
		stream := miniStream(t, 6, seed)
		for _, seg := range stream.Segments {
			if _, err := old.IngestSegment("v1", seg); err != nil {
				t.Fatalf("ingest stream %d: %v", i, err)
			}
		}
	}
	var buf bytes.Buffer
	if err := old.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if v := binary.LittleEndian.Uint32(data[8:]); v != snapshotVersion {
		t.Fatalf("saved version = %d, want %d", v, snapshotVersion)
	}
	binary.LittleEndian.PutUint32(data[8:], 1)

	db, err := Load(bytes.NewReader(data), cfg)
	if err != nil {
		t.Fatalf("v1 container rejected: %v", err)
	}
	q := toSeq([][2]float64{{20, 20}, {60, 60}, {100, 100}})
	want := knnExact(t, old, q, 5)
	got := knnExact(t, db, q, 5)
	if len(got) != len(want) {
		t.Fatalf("loaded db returned %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Distance != want[i].Distance || got[i].Record != want[i].Record {
			t.Fatalf("match %d differs after v1 load: %+v vs %+v", i, got[i], want[i])
		}
	}

	// A version beyond the writer's must still be refused.
	binary.LittleEndian.PutUint32(data[8:], snapshotVersion+1)
	if _, err := Load(bytes.NewReader(data), cfg); err == nil {
		t.Fatal("future snapshot version accepted")
	}
}
