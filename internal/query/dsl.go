package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"strgindex/internal/dist"
	"strgindex/internal/geom"
)

// The JSON query DSL. One document composes predicate and similarity in a
// single declarative request:
//
//	{
//	  "where": {"and": [
//	    {"passes_through": {"x0": 100, "y0": 0, "x1": 200, "y1": 240}},
//	    {"during": {"from": 0, "to": 120}},
//	    {"speed": {"min": 2.5}},
//	    {"or": [{"heading": {"dir": "east"}}, {"heading": {"dir": "west"}}]}
//	  ]},
//	  "similar": {"trajectory": [[20, 120], [160, 120], [300, 120]], "k": 5},
//	  "limit": 100
//	}
//
// A where node is a JSON object with exactly one key: a combinator
// ("and", "or", "not") or a predicate ("passes_through", "starts_in",
// "ends_in", "within", "during", "speed", "heading", "u_turn",
// "longer_than", "area"). Unknown keys and malformed payloads are
// rejected with a descriptive error; Parse never panics on any input
// (fuzz-enforced).

// queryDoc is the top-level wire shape.
type queryDoc struct {
	Where   json.RawMessage `json:"where"`
	Similar *similarDoc     `json:"similar"`
	Limit   int             `json:"limit"`
}

type similarDoc struct {
	Trajectory [][2]float64 `json:"trajectory"`
	K          int          `json:"k"`
	Exact      bool         `json:"exact"`
	Radius     float64      `json:"radius"`
	// Mode "approx" opts into the approximate tier; "nprobe" and
	// "recall_target" tune it (mutually exclusive).
	Mode         string  `json:"mode"`
	NProbe       int     `json:"nprobe"`
	RecallTarget float64 `json:"recall_target"`
}

// rectDoc is a wire rectangle; corners are normalized, so x0/x1 (and
// y0/y1) may come in either order.
type rectDoc struct {
	X0 float64 `json:"x0"`
	Y0 float64 `json:"y0"`
	X1 float64 `json:"x1"`
	Y1 float64 `json:"y1"`
}

func (r rectDoc) rect() geom.Rect {
	return geom.Rect{
		Min: geom.Pt(math.Min(r.X0, r.X1), math.Min(r.Y0, r.Y1)),
		Max: geom.Pt(math.Max(r.X0, r.X1), math.Max(r.Y0, r.Y1)),
	}
}

// Parse decodes and validates one DSL document.
func Parse(data []byte) (*Query, error) {
	var doc queryDoc
	if err := strictUnmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("query: %v", err)
	}
	q := &Query{Limit: doc.Limit}
	if len(doc.Where) > 0 && !bytes.Equal(bytes.TrimSpace(doc.Where), []byte("null")) {
		n, err := parseNode(doc.Where, 1)
		if err != nil {
			return nil, err
		}
		q.Where = n
	}
	if doc.Similar != nil {
		c := &SimilarClause{
			K: doc.Similar.K, Exact: doc.Similar.Exact, Radius: doc.Similar.Radius,
			Mode: doc.Similar.Mode, NProbe: doc.Similar.NProbe, RecallTarget: doc.Similar.RecallTarget,
		}
		c.Trajectory = make(dist.Sequence, len(doc.Similar.Trajectory))
		for i, p := range doc.Similar.Trajectory {
			c.Trajectory[i] = dist.Vec{p[0], p[1]}
		}
		q.Similar = c
	}
	if err := Validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

// strictUnmarshal rejects unknown fields and trailing garbage.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("trailing data after query document")
	}
	return nil
}

func parseNode(raw json.RawMessage, depth int) (Node, error) {
	if depth > maxWhereDepth {
		return nil, fmt.Errorf("query: where tree deeper than %d", maxWhereDepth)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return nil, fmt.Errorf("query: where node must be an object: %v", err)
	}
	if len(obj) != 1 {
		return nil, fmt.Errorf("query: where node must have exactly one key, got %d", len(obj))
	}
	var key string
	var body json.RawMessage
	for k, v := range obj {
		key, body = k, v
	}
	switch key {
	case "and", "or":
		var kids []json.RawMessage
		if err := json.Unmarshal(body, &kids); err != nil {
			return nil, fmt.Errorf("query: %s expects an array: %v", key, err)
		}
		ns := make([]Node, len(kids))
		for i, kid := range kids {
			n, err := parseNode(kid, depth+1)
			if err != nil {
				return nil, err
			}
			ns[i] = n
		}
		if key == "and" {
			return AndNode{Children: ns}, nil
		}
		return OrNode{Children: ns}, nil
	case "not":
		child, err := parseNode(body, depth+1)
		if err != nil {
			return nil, err
		}
		return NotNode{Child: child}, nil
	case "passes_through", "starts_in", "ends_in":
		var r rectDoc
		if err := strictUnmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("query: %s: %v", key, err)
		}
		kind := SpatialPasses
		switch key {
		case "starts_in":
			kind = SpatialStarts
		case "ends_in":
			kind = SpatialEnds
		}
		return SpatialNode{Kind: kind, Rect: r.rect()}, nil
	case "within":
		var w struct {
			rectDoc
			From *int `json:"from"`
			To   *int `json:"to"`
		}
		if err := strictUnmarshal(body, &w); err != nil {
			return nil, fmt.Errorf("query: within: %v", err)
		}
		from, to := 0, math.MaxInt32
		if w.From != nil {
			from = *w.From
		}
		if w.To != nil {
			to = *w.To
		}
		return WithinNode{Rect: w.rectDoc.rect(), From: from, To: to}, nil
	case "during":
		var d struct {
			From *int `json:"from"`
			To   *int `json:"to"`
		}
		if err := strictUnmarshal(body, &d); err != nil {
			return nil, fmt.Errorf("query: during: %v", err)
		}
		from, to := 0, math.MaxInt32
		if d.From != nil {
			from = *d.From
		}
		if d.To != nil {
			to = *d.To
		}
		return DuringNode{From: from, To: to}, nil
	case "speed":
		var s struct {
			Min *float64 `json:"min"`
			Max *float64 `json:"max"`
		}
		if err := strictUnmarshal(body, &s); err != nil {
			return nil, fmt.Errorf("query: speed: %v", err)
		}
		lo, hi := 0.0, math.Inf(1)
		if s.Min != nil {
			lo = *s.Min
		}
		if s.Max != nil {
			hi = *s.Max
		}
		return SpeedNode{Lo: lo, Hi: hi}, nil
	case "heading":
		var h struct {
			Dir string  `json:"dir"`
			Tol float64 `json:"tol"`
		}
		if err := strictUnmarshal(body, &h); err != nil {
			return nil, fmt.Errorf("query: heading: %v", err)
		}
		if h.Tol == 0 {
			h.Tol = 0.4
		}
		angle, err := headingAngle(h.Dir)
		if err != nil {
			return nil, err
		}
		return HeadingNode{Dir: h.Dir, Angle: angle, Tol: h.Tol}, nil
	case "u_turn":
		// Either `true` (default turn threshold) or {"min_turn": radians}.
		var b bool
		if err := json.Unmarshal(body, &b); err == nil {
			if !b {
				return nil, fmt.Errorf("query: u_turn: false has no meaning (use not)")
			}
			return UTurnNode{MinTurn: DefaultUTurn}, nil
		}
		var u struct {
			MinTurn float64 `json:"min_turn"`
		}
		if err := strictUnmarshal(body, &u); err != nil {
			return nil, fmt.Errorf("query: u_turn: %v", err)
		}
		if u.MinTurn == 0 {
			u.MinTurn = DefaultUTurn
		}
		return UTurnNode{MinTurn: u.MinTurn}, nil
	case "longer_than":
		var n int
		if err := json.Unmarshal(body, &n); err != nil {
			return nil, fmt.Errorf("query: longer_than expects an integer: %v", err)
		}
		return LengthNode{Min: n}, nil
	case "area":
		var a struct {
			Min *float64 `json:"min"`
			Max *float64 `json:"max"`
		}
		if err := strictUnmarshal(body, &a); err != nil {
			return nil, fmt.Errorf("query: area: %v", err)
		}
		lo, hi := 0.0, math.Inf(1)
		if a.Min != nil {
			lo = *a.Min
		}
		if a.Max != nil {
			hi = *a.Max
		}
		return AreaNode{Lo: lo, Hi: hi}, nil
	default:
		return nil, fmt.Errorf("query: unknown predicate %q", key)
	}
}

// DefaultUTurn is the turn threshold of a bare {"u_turn": true} predicate.
const DefaultUTurn = math.Pi * 0.8

// headingAngle maps a DSL direction keyword to its screen-coordinate
// angle (y grows downward).
func headingAngle(dir string) (float64, error) {
	switch dir {
	case "east":
		return 0, nil
	case "south":
		return math.Pi / 2, nil
	case "west":
		return math.Pi, nil
	case "north":
		return 3 * math.Pi / 2, nil
	default:
		return 0, fmt.Errorf("query: unknown heading %q", dir)
	}
}
