package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// sseEvent is one Server-Sent Events message.
type sseEvent struct {
	// ID is the id: field; HasID distinguishes "no id line" (the server's
	// gap marker) from an explicit id.
	ID    uint64
	HasID bool
	Type  string
	Data  string
}

// sseReader splits an event stream into messages: field lines up to a
// blank line, comment lines (": ping") ignored, multi-line data joined
// with newlines as the SSE specification prescribes.
type sseReader struct {
	sc *bufio.Scanner
}

func newSSEReader(r io.Reader) *sseReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	return &sseReader{sc: sc}
}

// next returns the next complete message, or io.EOF at a clean end of
// stream (a trailing partial message is dropped, as a browser would).
func (r *sseReader) next() (sseEvent, error) {
	var ev sseEvent
	var data []string
	fields := 0
	for r.sc.Scan() {
		line := r.sc.Text()
		if line == "" {
			if fields == 0 {
				continue
			}
			ev.Data = strings.Join(data, "\n")
			if ev.Type == "" {
				ev.Type = "message"
			}
			return ev, nil
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		name, val, _ := strings.Cut(line, ":")
		val = strings.TrimPrefix(val, " ")
		fields++
		switch name {
		case "id":
			id, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return ev, fmt.Errorf("sse: bad id %q", val)
			}
			ev.ID, ev.HasID = id, true
		case "event":
			ev.Type = val
		case "data":
			data = append(data, val)
		}
	}
	if err := r.sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.EOF
}

// feedEvent is the data payload of a standing-query event.
type feedEvent struct {
	Seq      uint64  `json:"seq"`
	Type     string  `json:"type"`
	OGID     int     `json:"og_id"`
	Stream   string  `json:"stream"`
	Clip     string  `json:"clip"`
	Distance float64 `json:"distance"`
}

// eventLog checks one subscription's delivery contract as messages
// arrive: ids dense from 1 with no repeat and no skip, no gap marker.
// cursor is what a reconnect sends as Last-Event-ID.
type eventLog struct {
	cursor uint64
	gaps   int
	events []feedEvent
}

// apply folds one message into the log. A gap marker counts as a failure
// and moves the cursor to its resume point without an id of its own, so
// a reconnect never resumes from the marker.
func (l *eventLog) apply(ev sseEvent) error {
	switch ev.Type {
	case "gap":
		l.gaps++
		var g struct {
			Resume uint64 `json:"resume"`
		}
		if err := json.Unmarshal([]byte(ev.Data), &g); err != nil {
			return fmt.Errorf("sse: gap payload: %v", err)
		}
		if ev.HasID {
			return fmt.Errorf("sse: gap event carries id %d", ev.ID)
		}
		l.cursor = g.Resume
		return nil
	case "closed":
		return nil
	}
	if !ev.HasID {
		return fmt.Errorf("sse: %s event without id", ev.Type)
	}
	if ev.ID != l.cursor+1 {
		return fmt.Errorf("sse: event id %d after %d (duplicate or missing events)", ev.ID, l.cursor)
	}
	var fe feedEvent
	if err := json.Unmarshal([]byte(ev.Data), &fe); err != nil {
		return fmt.Errorf("sse: event %d payload: %v", ev.ID, err)
	}
	if fe.Seq != ev.ID {
		return fmt.Errorf("sse: event id %d carries seq %d", ev.ID, fe.Seq)
	}
	l.cursor = ev.ID
	l.events = append(l.events, fe)
	return nil
}

// resumeRequest builds the GET that continues this log's stream: the
// Last-Event-ID header carries the cursor when there is one.
func (l *eventLog) resumeRequest(base, sub string, once bool) (*http.Request, error) {
	u := base + "/v1/subscriptions/" + sub + "/events"
	if once {
		u += "?once=1"
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if l.cursor > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(l.cursor, 10))
	}
	req.Header.Set("Accept", "text/event-stream")
	return req, nil
}

// ndjsonBatch frames one POST /v1/feeds/{id}/frames body: the optional
// meta header line first, then one pre-encoded frame per line.
func ndjsonBatch(meta []byte, frames [][]byte) []byte {
	var b bytes.Buffer
	if meta != nil {
		b.Write(bytes.TrimRight(meta, "\n"))
		b.WriteByte('\n')
	}
	for _, f := range frames {
		b.Write(bytes.TrimRight(f, "\n"))
		b.WriteByte('\n')
	}
	return b.Bytes()
}
