package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/obs"
)

// coveredMS returns how many milliseconds of the parent span's interval
// the union of the given spans covers, clipped to the parent. Children
// of a sharded job overlap each other, so durations cannot simply be
// summed.
func coveredMS(parent *obs.Span, spans []*obs.Span) float64 {
	pStart := parent.Start
	pEnd := pStart.Add(msDuration(parent.DurationMS))
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.Start, s.Start.Add(msDuration(s.DurationMS))
		if a.Before(pStart) {
			a = pStart
		}
		if b.After(pEnd) {
			b = pEnd
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return x.a.Compare(y.a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return float64(total) / float64(time.Millisecond)
}

// untracedMS is a span's self time: its duration minus the part its
// direct children cover. On a job root span it is the time no recorded
// phase accounts for.
func untracedMS(s *obs.Span) float64 {
	return s.DurationMS - coveredMS(s, s.Children)
}

// spansOf collects every span of the given kind in the tree, in
// depth-first order.
func spansOf(root *obs.Span, kind obs.SpanKind) []*obs.Span {
	var out []*obs.Span
	var walk func(*obs.Span)
	walk = func(s *obs.Span) {
		if s == nil {
			return
		}
		if s.Kind == kind {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

// shardSpread returns the longest shard span and its ratio to the mean
// shard span; both 0 without shards.
func shardSpread(shards []*obs.Span) (maxMS, skew float64) {
	if len(shards) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, s := range shards {
		sum += s.DurationMS
		maxMS = max(maxMS, s.DurationMS)
	}
	mean := sum / float64(len(shards))
	if mean == 0 {
		return maxMS, 0
	}
	return maxMS, maxMS / mean
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// scrape is one parsed /metrics exposition, reduced to the sum of each
// sample name across its label sets (histograms contribute their _sum
// and _count samples under those names).
type scrape map[string]float64

// parseScrape reads a Prometheus text exposition with the daemon's own
// strict parser, so a malformed exposition fails the run instead of
// silently reading as zero.
func parseScrape(r io.Reader) (scrape, error) {
	fams, err := obs.ParseText(r)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	out := scrape{}
	for _, f := range fams {
		for _, s := range f.Samples {
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

// delta returns how much the named sample grew from before to after.
func (after scrape) delta(before scrape, name string) float64 {
	return after[name] - before[name]
}
