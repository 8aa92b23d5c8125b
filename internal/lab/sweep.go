package lab

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"sos/internal/chaos"
)

// SweepSpec declares the adversarial scenario matrix: RunSweep executes
// the cross-product {scheme × chaos}, one live in-process run per cell.
// An empty axis defaults to the base spec's own setting (a single value).
type SweepSpec struct {
	// Schemes lists routing protocols (routing.Scheme* names).
	Schemes []string `json:"schemes,omitempty"`
	// Chaos lists chaos presets (the chaos.Preset* names).
	Chaos []string `json:"chaos,omitempty"`
}

// validate checks the axis values that can be checked without running.
func (w *SweepSpec) validate() error {
	if w == nil {
		return nil
	}
	for _, c := range w.Chaos {
		if _, err := chaos.Preset(c, time.Second, 0); err != nil {
			return fmt.Errorf("lab: sweep: %w", err)
		}
	}
	return nil
}

// SweepCell is one grid cell: the axis coordinates plus the headline
// quantities of its run.
type SweepCell struct {
	Scheme string `json:"scheme"`
	Chaos  string `json:"chaos"`

	Created    int     `json:"created"`
	Deliveries int     `json:"deliveries"`
	RatioMean  float64 `json:"ratioMean"`
	DelayP50   float64 `json:"delayP50"`
	DelayP90   float64 `json:"delayP90"`

	// Fault-injection and degradation counters, summed over the fleet.
	ChaosDropped    uint64 `json:"chaosDropped"`
	ChaosDuplicated uint64 `json:"chaosDuplicated"`
	ChaosReordered  uint64 `json:"chaosReordered"`
	Misbehavior     uint64 `json:"misbehavior"`
	Quarantines     uint64 `json:"quarantines"`
	Reconnects      uint64 `json:"reconnects"`
	DialRetries     uint64 `json:"dialRetries"`

	ObservabilityViolations []string `json:"observabilityViolations,omitempty"`

	// Report is the cell's full report, for callers that drill down.
	Report *Report `json:"-"`
}

// SweepReport is the finished scenario matrix.
type SweepReport struct {
	Name  string      `json:"name"`
	Cells []SweepCell `json:"cells"`
}

// cellSpec clones the base spec onto one cell's coordinates.
func cellSpec(base *Spec, scheme, chaosName string) (*Spec, error) {
	clone := *base
	clone.Sweep = nil
	clone.Name = fmt.Sprintf("%s/%s+%s", base.Name, scheme, chaosName)
	clone.Scheme = scheme
	clone.chaos = chaosName
	if err := clone.Validate(); err != nil {
		return nil, fmt.Errorf("lab: sweep cell %s: %w", clone.Name, err)
	}
	return &clone, nil
}

// axis returns the sweep axis, or the base value as a one-element axis.
func axis(vals []string, base string) []string {
	if len(vals) > 0 {
		return vals
	}
	return []string{base}
}

// RunSweep executes the cross-product {scheme × chaos} declared by the
// spec's sweep block, one sequential
// live in-process run per cell — sequential because each cell binds its
// own loopback fleet and the grid compares cells fairly only when they
// don't contend for the host.
func RunSweep(base *Spec, opts Options) (*SweepReport, error) {
	if base == nil {
		return nil, fmt.Errorf("lab: nil spec")
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	if opts.Mode != "" && opts.Mode != ModeInProcess {
		return nil, fmt.Errorf("lab: sweeps run in mode %q only, got %q", ModeInProcess, opts.Mode)
	}
	sweep := base.Sweep
	if sweep == nil {
		return nil, fmt.Errorf("lab: spec %q has no sweep block", base.Name)
	}

	schemes := axis(sweep.Schemes, base.Scheme)
	chaosAxis := axis(sweep.Chaos, chaos.PresetNone)

	out := &SweepReport{Name: base.Name}
	total := len(schemes) * len(chaosAxis)
	n := 0
	for _, scheme := range schemes {
		for _, chz := range chaosAxis {
			n++
			spec, err := cellSpec(base, scheme, chz)
			if err != nil {
				return nil, err
			}
			opts.logf("lab: sweep cell %d/%d: %s", n, total, spec.Name)
			rep, err := Run(spec, opts)
			if err != nil {
				return nil, fmt.Errorf("lab: sweep cell %s: %w", spec.Name, err)
			}
			out.Cells = append(out.Cells, summarizeCell(scheme, chz, rep))
		}
	}
	return out, nil
}

// summarizeCell flattens one cell's report into grid columns.
func summarizeCell(scheme, chz string, rep *Report) SweepCell {
	cell := SweepCell{
		Scheme:                  scheme,
		Chaos:                   cmp.Or(chz, chaos.PresetNone),
		Created:                 rep.Created,
		Deliveries:              rep.Deliveries,
		RatioMean:               rep.Ratio.Mean,
		DelayP50:                rep.Delay.P50,
		DelayP90:                rep.Delay.P90,
		ObservabilityViolations: rep.ObservabilityViolations(),
		Report:                  rep,
	}
	if rep.Chaos != nil {
		cell.ChaosDropped = rep.Chaos.FramesDropped + rep.Chaos.OneWayDrops
		cell.ChaosDuplicated = rep.Chaos.FramesDuplicated
		cell.ChaosReordered = rep.Chaos.FramesReordered
	}
	for _, node := range rep.Nodes {
		cell.Misbehavior += uint64(node.Metrics["sos_sync_misbehavior_total"])
		cell.Quarantines += uint64(node.Metrics["sos_sync_quarantine_total"])
		cell.Reconnects += uint64(node.Metrics["sos_sync_reconnects_total"])
	}
	// The in-process fleet shares one medium, so every node's registry
	// reports the same dial-retry counter: read it once, don't sum.
	for _, node := range rep.Nodes {
		if v, ok := node.Metrics["sos_net_dial_retries_total"]; ok {
			cell.DialRetries = uint64(v)
			break
		}
	}
	return cell
}

// WriteCSV writes the grid as one CSV row per cell.
func (r *SweepReport) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "scheme,chaos,created,deliveries,ratio_mean,delay_p50_s,delay_p90_s,chaos_dropped,chaos_duplicated,chaos_reordered,misbehavior,quarantines,reconnects,dial_retries"); err != nil {
		return fmt.Errorf("lab: writing sweep csv: %w", err)
	}
	for _, c := range r.Cells {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%.4f,%.3f,%.3f,%d,%d,%d,%d,%d,%d,%d\n",
			c.Scheme, c.Chaos,
			c.Created, c.Deliveries, c.RatioMean, c.DelayP50, c.DelayP90,
			c.ChaosDropped, c.ChaosDuplicated, c.ChaosReordered,
			c.Misbehavior, c.Quarantines, c.Reconnects, c.DialRetries); err != nil {
			return fmt.Errorf("lab: writing sweep csv: %w", err)
		}
	}
	return nil
}

// WriteMarkdown writes the grid as a paper-style markdown table.
func (r *SweepReport) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Scenario matrix: %s\n\n", r.Name)
	b.WriteString("| scheme | chaos | created | delivered | ratio | p50 | p90 | dropped | dup | reord | misbehavior | quarantines | redials |\n")
	b.WriteString("|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %.2f | %.2fs | %.2fs | %d | %d | %d | %d | %d | %d |\n",
			c.Scheme, c.Chaos,
			c.Created, c.Deliveries, c.RatioMean, c.DelayP50, c.DelayP90,
			c.ChaosDropped, c.ChaosDuplicated, c.ChaosReordered,
			c.Misbehavior, c.Quarantines, c.Reconnects)
	}
	for _, c := range r.Cells {
		for _, v := range c.ObservabilityViolations {
			fmt.Fprintf(&b, "\n- **%s/%s**: %s", c.Scheme, c.Chaos, v)
		}
	}
	b.WriteString("\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("lab: writing sweep markdown: %w", err)
	}
	return nil
}

// WriteJSON writes the full sweep report as indented JSON.
func (r *SweepReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("lab: writing sweep report: %w", err)
	}
	return nil
}

// Summary renders the human-readable sweep block soslab prints.
func (r *SweepReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep %q: %d cells\n", r.Name, len(r.Cells))
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-16s %-16s ratio %.2f  delivered %d/%d  quarantines %d\n",
			c.Scheme, c.Chaos, c.RatioMean, c.Deliveries, c.Created, c.Quarantines)
	}
	return b.String()
}
