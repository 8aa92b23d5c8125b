package geo

import (
	"strings"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/mobility"
	"sos/internal/mpc"
	"sos/internal/msg"
)

var (
	alice = id.NewUserID("alice")
	t0    = time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC)
)

func TestRecorderEvents(t *testing.T) {
	r := NewRecorder()
	ref := msg.Ref{Author: alice, Seq: 1}
	r.RecordCreated(ref, alice, t0, mobility.Point{X: 100, Y: 200})
	r.RecordPassed(ref, id.NewUserID("bob"), t0.Add(time.Hour), mobility.Point{X: 300, Y: 400})

	all := r.Events(0)
	if len(all) != 2 {
		t.Fatalf("events = %d, want 2", len(all))
	}
	created := r.Events(EventCreated)
	if len(created) != 1 || created[0].Pos.X != 100 {
		t.Errorf("created events = %+v", created)
	}
	passed := r.Events(EventPassed)
	if len(passed) != 1 || passed[0].Pos.Y != 400 {
		t.Errorf("passed events = %+v", passed)
	}
}

func TestBoundingBox(t *testing.T) {
	r := NewRecorder()
	ref := msg.Ref{Author: alice, Seq: 1}
	r.RecordCreated(ref, alice, t0, mobility.Point{X: 100, Y: 900})
	r.RecordPassed(ref, alice, t0, mobility.Point{X: 700, Y: 50})

	min, max := r.BoundingBox()
	if min.X != 100 || min.Y != 50 || max.X != 700 || max.Y != 900 {
		t.Errorf("bbox = %v %v", min, max)
	}

	empty := NewRecorder()
	emin, emax := empty.BoundingBox()
	if emin != (mobility.Point{}) || emax != (mobility.Point{}) {
		t.Error("empty bbox should be zero")
	}
}

func TestContacts(t *testing.T) {
	r := NewRecorder()
	r.RecordContact(mpc.Contact{A: "a", B: "b", Tech: mpc.Bluetooth, At: t0, Up: true})
	r.RecordContact(mpc.Contact{A: "a", B: "b", Tech: mpc.Bluetooth, At: t0.Add(time.Minute), Up: false})
	r.RecordContact(mpc.Contact{A: "a", B: "c", Tech: mpc.Bluetooth, At: t0, Up: true})

	if got := r.ContactCount(); got != 2 {
		t.Errorf("ContactCount = %d, want 2", got)
	}
	if got := len(r.Contacts()); got != 3 {
		t.Errorf("Contacts = %d records, want 3", got)
	}
}

func TestGeoCSV(t *testing.T) {
	r := NewRecorder()
	ref := msg.Ref{Author: alice, Seq: 1}
	r.RecordCreated(ref, alice, t0, mobility.Point{X: 1.5, Y: 2.5})

	var sb strings.Builder
	if err := r.WriteGeoCSV(&sb); err != nil {
		t.Fatalf("WriteGeoCSV: %v", err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "kind,t,x,y,node,ref\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "created,") || !strings.Contains(out, "1.5,2.5") {
		t.Errorf("missing row fields: %q", out)
	}
}

func TestContactCSV(t *testing.T) {
	r := NewRecorder()
	r.RecordContact(mpc.Contact{A: "x", B: "y", Tech: mpc.PeerToPeerWiFi, At: t0, Up: true})
	var sb strings.Builder
	if err := r.WriteContactCSV(&sb); err != nil {
		t.Fatalf("WriteContactCSV: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "x,y,p2p-wifi,true") {
		t.Errorf("missing contact row: %q", out)
	}
}

func TestEventKindString(t *testing.T) {
	if EventCreated.String() != "created" || EventPassed.String() != "passed" || EventKind(0).String() != "unknown" {
		t.Error("kind names wrong")
	}
}
