package core

import (
	"sync"
	"testing"

	"strgindex/internal/dist"
	"strgindex/internal/video"
)

// TestSharedDBConcurrentSearchDuringIngest hammers a SharedDB with
// similarity queries from several goroutines while another goroutine
// ingests segments — the live deployment shape (one camera writer, many
// query readers). Run under -race (the Makefile's test-race target) this
// proves the read/write locking composes with the worker pools inside
// search and ingest: pool goroutines must never outlive the lock scope
// that spawned them.
func TestSharedDBConcurrentSearchDuringIngest(t *testing.T) {
	prof := video.StreamProfiles()[0]
	prof.NumObjects = 6
	stream, err := video.GenerateStream(prof, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Segments) < 2 {
		t.Fatalf("stream too short: %d segments", len(stream.Segments))
	}

	cfg := DefaultConfig()
	cfg.Concurrency = 4
	db := OpenShared(cfg)
	// Seed the index so queries have something to hit from the start.
	if _, err := db.IngestSegment(prof.Name, stream.Segments[0]); err != nil {
		t.Fatal(err)
	}

	q := dist.Sequence{{10, 10}, {30, 30}, {50, 50}, {70, 70}}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				switch (g + i) % 3 {
				case 0:
					knn(t, db, q, 3)
				case 1:
					knnExact(t, db, q, 3)
				default:
					rangeOf(t, db, q, 200)
				}
			}
		}(g)
	}
	for _, seg := range stream.Segments[1:] {
		if _, err := db.IngestSegment(prof.Name, seg); err != nil {
			close(done)
			wg.Wait()
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()

	st := db.Stats()
	if st.Segments != len(stream.Segments) {
		t.Fatalf("ingested %d segments, want %d", st.Segments, len(stream.Segments))
	}
	if st.OGs == 0 {
		t.Fatal("no OGs indexed")
	}
}
