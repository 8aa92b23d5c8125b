// Contact-trace parsing: the trace-driven scenario source. Trace-driven
// evaluation is the standard way social forwarding schemes are validated
// (Haggle, CRAWDAD encounter dumps): instead of synthesizing mobility and
// detecting proximity, the recorded link up/down events are replayed
// verbatim into the medium. The format here is deliberately minimal —
// one CSV transition per line, (node, peer, up|down, timestamp) — so real
// encounter dumps convert with a one-line awk script. docs/SCENARIOS.md
// documents it with examples; examples/trace-replay/ holds a runnable one.
package sim

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ContactEvent is one recorded link transition between two named nodes.
type ContactEvent struct {
	At time.Time
	A  string
	B  string
	Up bool
}

// LoadContactTrace reads a CSV contact-trace file and returns its events
// in chronological order plus the sorted set of node handles it names.
// Relative timestamps (plain seconds) are resolved against base.
func LoadContactTrace(path string, base time.Time) ([]ContactEvent, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: opening contact trace: %w", err)
	}
	defer f.Close()
	events, handles, err := parseContactTrace(f, base)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %s: %w", path, err)
	}
	return events, handles, nil
}

// parseContactTrace parses a contact trace from r. Each non-empty,
// non-comment line is one link transition, node,peer,op,at (e.g.
// n1,n2,up,120). op is "up" or "down". at is either an absolute RFC
// 3339 timestamp ("2017-04-03T09:00:00Z") or a number of seconds from
// the scenario start (resolved against base; fractional seconds
// allowed). Lines beginning with '#', and a leading "node,peer,op,at"
// header, are skipped. Events are returned sorted by time (input order
// breaks ties), with the handles the trace names sorted and deduplicated.
func parseContactTrace(r io.Reader, base time.Time) ([]ContactEvent, []string, error) {
	var events []ContactEvent
	seen := make(map[string]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo, firstData := 0, true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// The first data line may be the canonical header.
		if firstData && isTraceHeader(line) {
			firstData = false
			continue
		}
		firstData = false
		ev, err := parseCSVContactLine(line, base)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if ev.A == ev.B {
			return nil, nil, fmt.Errorf("line %d: node %q linked to itself", lineNo, ev.A)
		}
		seen[ev.A], seen[ev.B] = true, true
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("reading trace: %w", err)
	}
	if len(events) == 0 {
		return nil, nil, fmt.Errorf("empty contact trace")
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At.Before(events[j].At) })
	handles := make([]string, 0, len(seen))
	for h := range seen {
		handles = append(handles, h)
	}
	sort.Strings(handles)
	return events, handles, nil
}

// isTraceHeader reports whether a first line is the canonical header.
func isTraceHeader(line string) bool {
	fields := strings.Split(line, ",")
	return len(fields) == 4 &&
		strings.EqualFold(strings.TrimSpace(fields[0]), "node") &&
		strings.EqualFold(strings.TrimSpace(fields[1]), "peer")
}

// parseCSVContactLine parses one comma-separated transition.
func parseCSVContactLine(line string, base time.Time) (ContactEvent, error) {
	fields := strings.Split(line, ",")
	if len(fields) != 4 {
		return ContactEvent{}, fmt.Errorf("want 4 fields (node,peer,op,at), got %d", len(fields))
	}
	node := strings.TrimSpace(fields[0])
	peer := strings.TrimSpace(fields[1])
	if node == "" || peer == "" {
		return ContactEvent{}, fmt.Errorf("empty node handle")
	}
	up, err := parseOp(strings.TrimSpace(fields[2]))
	if err != nil {
		return ContactEvent{}, err
	}
	at, err := parseTraceTime(strings.TrimSpace(fields[3]), base)
	if err != nil {
		return ContactEvent{}, err
	}
	return ContactEvent{At: at, A: node, B: peer, Up: up}, nil
}

// parseOp maps the transition keyword onto a direction.
func parseOp(op string) (bool, error) {
	switch strings.ToLower(op) {
	case "up", "conn", "start":
		return true, nil
	case "down", "disc", "end":
		return false, nil
	default:
		return false, fmt.Errorf("unknown op %q (want up or down)", op)
	}
}

// parseTraceTime accepts RFC 3339 or seconds-from-base.
func parseTraceTime(text string, base time.Time) (time.Time, error) {
	if secs, err := strconv.ParseFloat(text, 64); err == nil {
		if secs < 0 {
			return time.Time{}, fmt.Errorf("negative offset %q", text)
		}
		return base.Add(time.Duration(secs * float64(time.Second))), nil
	}
	at, err := time.Parse(time.RFC3339, text)
	if err != nil {
		return time.Time{}, fmt.Errorf("bad timestamp %q (want RFC 3339 or seconds offset)", text)
	}
	return at, nil
}
