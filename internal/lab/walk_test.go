package lab

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// fakeFleet records every call the walk makes, with its wall offset from
// the run start. No sockets, no processes.
type fakeFleet struct {
	t0    time.Time
	calls []fakeCall
	block time.Duration // how long a node takes to fall asleep
}

type fakeCall struct {
	what string
	at   time.Duration
}

func (f *fakeFleet) record(what string) {
	f.calls = append(f.calls, fakeCall{what, time.Since(f.t0)})
}

func (f *fakeFleet) start(liveEnv) error { return nil }

func (f *fakeFleet) post(node int, body string) error {
	f.record(fmt.Sprintf("post n%d %q", node+1, body))
	return nil
}

func (f *fakeFleet) setAwake(node int, awake bool) error {
	f.record(fmt.Sprintf("awake n%d %v", node+1, awake))
	if !awake {
		time.Sleep(f.block)
	}
	return nil
}

func (f *fakeFleet) gauges() timelineSample {
	f.record("sample")
	return timelineSample{}
}

func (f *fakeFleet) stop() ([]NodeReport, *ChaosReport) { return nil, nil }

// TestWalkFollowsThePlan drives the live walk over a fake fleet: churn
// before posts at one instant, no post by a sleeping author and no no-op
// churn ever reaches the fleet, and samples land at k·interval even when
// a step blocks past them.
func TestWalkFollowsThePlan(t *testing.T) {
	// Posts at 0, 100, 200, 300ms by n1, n2, n1, n2.
	spec, err := parseSpec([]byte(`{
		"name": "walk", "nodes": 2, "duration": "400ms", "posts": 4, "postWindow": "300ms",
		"churn": [
			{"at": "0s",    "node": "n1", "op": "down"},
			{"at": "50ms",  "node": "n1", "op": "down"},
			{"at": "60ms",  "node": "n2", "op": "up"},
			{"at": "200ms", "node": "n1", "op": "up"},
			{"at": "300ms", "node": "n2", "op": "down"}
		]
	}`))
	if err != nil {
		t.Fatalf("parseSpec: %v", err)
	}
	const interval = 100 * time.Millisecond
	p := compilePlan(spec, interval)
	// The same two skips as TestSimModeChurnSkipsPosts: n1's post at the
	// instant of its down, and n2's post at the instant of its down.
	if p.posts != 2 || p.skipped != 2 {
		t.Fatalf("plan posts=%d skipped=%d, want 2 and 2", p.posts, p.skipped)
	}

	f := &fakeFleet{t0: time.Now(), block: 150 * time.Millisecond}
	samples, err := walk(spec, Options{Logf: t.Logf}, p, f, f.t0, f.gauges)
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	if ran := time.Since(f.t0); ran < spec.Duration.D() {
		t.Errorf("walk returned after %s, before the run's end %s", ran, spec.Duration)
	}

	const ms = time.Millisecond
	want := []fakeCall{
		{"awake n1 false", 0}, // before n1's post at 0, which never comes
		{`post n2 "walk post 2 from n2"`, 100 * ms},
		{"sample", 100 * ms},
		{"awake n1 true", 200 * ms}, // before n1's post at the same instant
		{`post n1 "walk post 3 from n1"`, 200 * ms},
		{"sample", 200 * ms},
		{"awake n2 false", 300 * ms}, // before n2's post at 300, which never comes
		{"sample", 450 * ms},         // due at 300, read when the blocking step returns
		{"sample", 450 * ms},         // due at 400, likewise
	}
	if len(f.calls) != len(want) {
		t.Fatalf("fleet calls = %v, want %v", f.calls, want)
	}
	for i, c := range f.calls {
		if c.what != want[i].what || c.at < want[i].at {
			t.Fatalf("fleet call %d = %q at %s, want %q at or after %s (all calls %v)",
				i, c.what, c.at, want[i].what, want[i].at, f.calls)
		}
	}

	// Samples keep their planned offsets, the two behind the block too.
	var at []time.Duration
	for _, s := range samples {
		at = append(at, s.at)
	}
	if want := []time.Duration{interval, 2 * interval, 3 * interval, 4 * interval}; !reflect.DeepEqual(at, want) {
		t.Errorf("sample offsets = %v, want %v", at, want)
	}
}
