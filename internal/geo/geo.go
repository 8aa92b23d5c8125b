// Package geo records the spatial and contact history of an evaluation
// run: geo-tagged message generation and dissemination events (the data
// behind the paper's Fig. 4b map of Gainesville) and radio contact
// transitions. Recorders export CSV for external plotting.
package geo

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"sos/internal/id"
	"sos/internal/mobility"
	"sos/internal/mpc"
	"sos/internal/msg"
)

// EventKind distinguishes geo event types.
type EventKind int

// Geo event kinds: generation (plotted blue in the paper) and
// dissemination passes (red).
const (
	EventCreated EventKind = iota + 1
	EventPassed
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventCreated:
		return "created"
	case EventPassed:
		return "passed"
	default:
		return "unknown"
	}
}

// Event is one geo-tagged message event.
type Event struct {
	Kind EventKind
	Ref  msg.Ref
	Node id.UserID
	At   time.Time
	Pos  mobility.Point
}

// Recorder accumulates a run's spatial and contact history. It is safe
// for concurrent use.
type Recorder struct {
	mu       sync.Mutex
	events   []Event
	contacts []mpc.Contact
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// RecordCreated logs a message generation at a position.
func (r *Recorder) RecordCreated(ref msg.Ref, node id.UserID, at time.Time, pos mobility.Point) {
	r.record(Event{Kind: EventCreated, Ref: ref, Node: node, At: at, Pos: pos})
}

// RecordPassed logs a message dissemination (receipt at a node).
func (r *Recorder) RecordPassed(ref msg.Ref, node id.UserID, at time.Time, pos mobility.Point) {
	r.record(Event{Kind: EventPassed, Ref: ref, Node: node, At: at, Pos: pos})
}

func (r *Recorder) record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// RecordContact logs a radio contact transition (the sim medium's
// OnContact hook plugs in here).
func (r *Recorder) RecordContact(c mpc.Contact) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.contacts = append(r.contacts, c)
}

// Events returns a copy of the geo events, optionally filtered by kind
// (0 selects all).
func (r *Recorder) Events(kind EventKind) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if kind == 0 || e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Contacts returns a copy of the contact log.
func (r *Recorder) Contacts() []mpc.Contact {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]mpc.Contact, len(r.contacts))
	copy(out, r.contacts)
	return out
}

// ContactCount returns the number of contact-up transitions.
func (r *Recorder) ContactCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.contacts {
		if c.Up {
			n++
		}
	}
	return n
}

// BoundingBox returns the envelope of all geo events — a sanity check
// that activity spans the study area (the paper's ~11 km × 8 km).
func (r *Recorder) BoundingBox() (min, max mobility.Point) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.events) == 0 {
		return mobility.Point{}, mobility.Point{}
	}
	min = mobility.Point{X: math.Inf(1), Y: math.Inf(1)}
	max = mobility.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	for _, e := range r.events {
		min.X = math.Min(min.X, e.Pos.X)
		min.Y = math.Min(min.Y, e.Pos.Y)
		max.X = math.Max(max.X, e.Pos.X)
		max.Y = math.Max(max.Y, e.Pos.Y)
	}
	return min, max
}

// WriteGeoCSV emits "kind,t,x,y,node,ref" rows for map plotting.
func (r *Recorder) WriteGeoCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "kind,t,x,y,node,ref"); err != nil {
		return fmt.Errorf("geo: writing csv: %w", err)
	}
	for _, e := range r.Events(0) {
		_, err := fmt.Fprintf(w, "%s,%s,%.1f,%.1f,%s,%s\n",
			e.Kind, e.At.Format(time.RFC3339), e.Pos.X, e.Pos.Y, e.Node, e.Ref)
		if err != nil {
			return fmt.Errorf("geo: writing csv: %w", err)
		}
	}
	return nil
}

// WriteContactCSV emits "t,a,b,tech,up" rows.
func (r *Recorder) WriteContactCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "t,a,b,tech,up"); err != nil {
		return fmt.Errorf("geo: writing csv: %w", err)
	}
	for _, c := range r.Contacts() {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%t\n",
			c.At.Format(time.RFC3339), c.A, c.B, c.Tech, c.Up)
		if err != nil {
			return fmt.Errorf("geo: writing csv: %w", err)
		}
	}
	return nil
}
