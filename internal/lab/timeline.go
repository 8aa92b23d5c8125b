package lab

import (
	"fmt"
	"io"
	"time"

	"sos/internal/metrics"
)

// TimelinePoint is one sampling interval of the fleet timeline: how the
// run progressed, not just where it ended. Deliveries are bucketed
// post-hoc from the aggregated delivery records (every mode), so the
// final cumulative count always equals Report.Deliveries; the gauge
// columns are read by the live run's own walk at each interval boundary
// and are zero where there is nothing to read (sim, and the
// child-process fleet whose internals this process cannot reach).
type TimelinePoint struct {
	// OffsetSeconds is the interval's start, in seconds since the run
	// began (wall time in the live modes, virtual time in ModeSim).
	OffsetSeconds float64 `json:"offsetSeconds"`
	// Deliveries counts deliveries inside this interval;
	// CumulativeDeliveries is the running total through its end.
	Deliveries           int `json:"deliveries"`
	CumulativeDeliveries int `json:"cumulativeDeliveries"`
	// Disseminations is the aggregator's cumulative user-to-user
	// transfer count at the sample instant (live modes only).
	Disseminations uint64 `json:"disseminations,omitempty"`
	// ExporterQueue sums every node's telemetry queue depth at the
	// sample instant — sustained non-zero means the export link lags.
	ExporterQueue int `json:"exporterQueue,omitempty"`
	// SyncEntries sums the fleet's cumulative request-planning entry
	// scans; SummaryBytes and PayloadBytes sum the cumulative outbound
	// wire bytes per plane (in-process mode only).
	SyncEntries  uint64 `json:"syncEntries,omitempty"`
	SummaryBytes uint64 `json:"summaryBytes,omitempty"`
	PayloadBytes uint64 `json:"payloadBytes,omitempty"`
}

// timelineSample is one live gauge snapshot, taken by the walk.
type timelineSample struct {
	at             time.Duration // planned offset since run start
	disseminations uint64
	exporterQueue  int
	syncEntries    uint64
	summaryBytes   uint64
	payloadBytes   uint64
}

// attachTimeline buckets the report's delivery records into fixed
// intervals from start and folds in any live gauge samples (matched to
// buckets by their offsets; within a bucket the last sample wins).
func attachTimeline(r *Report, start time.Time, interval, elapsed time.Duration, samples []timelineSample) {
	if interval <= 0 {
		return
	}
	buckets := int(elapsed / interval)
	if time.Duration(buckets)*interval < elapsed {
		buckets++ // partial tail interval
	}
	if buckets <= 0 {
		buckets = 1
	}
	points := make([]TimelinePoint, buckets)
	for i := range points {
		points[i].OffsetSeconds = (time.Duration(i) * interval).Seconds()
	}
	for _, d := range r.col.Deliveries(metrics.AllHops) {
		i := int(d.DeliveredAt.Sub(start) / interval)
		if i < 0 {
			i = 0
		}
		if i >= buckets {
			i = buckets - 1
		}
		points[i].Deliveries++
	}
	cum := 0
	for i := range points {
		cum += points[i].Deliveries
		points[i].CumulativeDeliveries = cum
	}
	for _, s := range samples {
		i := int(s.at / interval)
		if i < 0 || i >= buckets {
			continue
		}
		points[i].Disseminations = s.disseminations
		points[i].ExporterQueue = s.exporterQueue
		points[i].SyncEntries = s.syncEntries
		points[i].SummaryBytes = s.summaryBytes
		points[i].PayloadBytes = s.payloadBytes
	}
	r.Timeline = points
	r.TimelineInterval = Duration(interval)
}

// WriteTimelineCSV writes the fleet timeline, one row per interval. The
// final cumulativeDeliveries value equals Report.Deliveries by
// construction (both come from the same aggregated delivery records).
func (r *Report) WriteTimelineCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "offsetSeconds,deliveries,cumulativeDeliveries,disseminations,exporterQueue,syncEntries,summaryBytes,payloadBytes"); err != nil {
		return fmt.Errorf("lab: writing timeline csv: %w", err)
	}
	for _, p := range r.Timeline {
		if _, err := fmt.Fprintf(w, "%.3f,%d,%d,%d,%d,%d,%d,%d\n",
			p.OffsetSeconds, p.Deliveries, p.CumulativeDeliveries,
			p.Disseminations, p.ExporterQueue, p.SyncEntries,
			p.SummaryBytes, p.PayloadBytes); err != nil {
			return fmt.Errorf("lab: writing timeline csv: %w", err)
		}
	}
	return nil
}
