package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

const stream = `: ping

event: gap
data: {"missed_from":1,"resume":4}

id: 5
event: match
data: {"seq":5,"type":"match","og_id":40,"stream":"cam0","clip":"cam0/cam0/000002[0:20]"}

: ping

id: 6
event: match
data: {"seq":6,"type":"match",
data: "og_id":41,"stream":"cam0","clip":"cam0/cam0/000002[1:21]"}

id: 7
event: match
data: {"seq":7,"type":"match","og_id":42}
`

func readAll(t *testing.T, in string) []sseEvent {
	t.Helper()
	r := newSSEReader(strings.NewReader(in))
	var out []sseEvent
	for {
		ev, err := r.next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
}

func TestSSEFraming(t *testing.T) {
	evs := readAll(t, stream)
	// The trailing message has no terminating blank line: dropped.
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(evs), evs)
	}
	if evs[0].Type != "gap" || evs[0].HasID {
		t.Fatalf("gap marker parsed as %+v", evs[0])
	}
	if evs[2].ID != 6 || !strings.Contains(evs[2].Data, "\n") {
		t.Fatalf("multi-line data not joined: %+v", evs[2])
	}
}

func TestEventLogGapAndResume(t *testing.T) {
	var l eventLog
	evs := readAll(t, stream+"\n")
	for _, ev := range evs {
		if ev.ID == 6 {
			// Multi-line JSON joined with a newline is still valid JSON.
			if !json.Valid([]byte(ev.Data)) {
				t.Fatalf("joined data invalid: %q", ev.Data)
			}
		}
		if err := l.apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if l.gaps != 1 || l.cursor != 7 || len(l.events) != 3 {
		t.Fatalf("log after stream: gaps=%d cursor=%d events=%d", l.gaps, l.cursor, len(l.events))
	}
	req, err := l.resumeRequest("http://h", "sub-000001", false)
	if err != nil {
		t.Fatal(err)
	}
	if got := req.Header.Get("Last-Event-ID"); got != "7" {
		t.Fatalf("Last-Event-ID = %q, want 7", got)
	}
	if req.URL.Path != "/v1/subscriptions/sub-000001/events" || req.URL.RawQuery != "" {
		t.Fatalf("resume URL %s", req.URL)
	}
	var fresh eventLog
	req, _ = fresh.resumeRequest("http://h", "s", true)
	if req.Header.Get("Last-Event-ID") != "" || req.URL.RawQuery != "once=1" {
		t.Fatalf("fresh log request: header %q query %q", req.Header.Get("Last-Event-ID"), req.URL.RawQuery)
	}
}

func TestEventLogRejectsDuplicatesAndSkips(t *testing.T) {
	mk := func(id uint64) sseEvent {
		d, _ := json.Marshal(feedEvent{Seq: id, Type: "match"})
		return sseEvent{ID: id, HasID: true, Type: "match", Data: string(d)}
	}
	var l eventLog
	if err := l.apply(mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.apply(mk(1)); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := l.apply(mk(3)); err == nil {
		t.Fatal("skipped id accepted")
	}
	if err := l.apply(sseEvent{Type: "match", Data: "{}"}); err == nil {
		t.Fatal("id-less match accepted")
	}
	if err := l.apply(sseEvent{ID: 2, HasID: true, Type: "gap", Data: `{"resume":1}`}); err == nil {
		t.Fatal("gap with id accepted")
	}
}

func TestNDJSONBatch(t *testing.T) {
	meta := []byte(`{"meta":{"width":320,"height":240,"fps":12}}` + "\n")
	body := ndjsonBatch(meta, [][]byte{[]byte(`{"Index":0}`), []byte(`{"Index":1}` + "\n")})
	sc := bufio.NewScanner(bytes.NewReader(body))
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 3 || !strings.HasPrefix(lines[0], `{"meta"`) || lines[2] != `{"Index":1}` {
		t.Fatalf("batch lines %q", lines)
	}
	if !bytes.HasSuffix(body, []byte("}\n")) || bytes.Contains(body, []byte("\n\n")) {
		t.Fatalf("batch framing %q", body)
	}
	if got := ndjsonBatch(nil, [][]byte{[]byte(`{"Index":2}`)}); string(got) != "{\"Index\":2}\n" {
		t.Fatalf("meta-less batch %q", got)
	}
}
