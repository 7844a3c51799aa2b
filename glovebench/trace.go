package main

import (
	"context"
	"fmt"

	"repro/internal/obs"
	"repro/pkg/client"
)

// sample adds one traced observation of a per-layer metric.
func (b *bench) sample(name string, v float64) {
	b.layer[name] = append(b.layer[name], v)
}

// traceJob reads a finished batch or windowed job's span tree and
// status, after the op's clock stopped.
func (b *bench) traceJob(ctx context.Context, st client.JobStatus, res opResult) error {
	tr, err := b.d.client.JobTrace(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("trace of %s: %w", st.ID, err)
	}
	root := tr.Root
	if root == nil || root.DurationMS <= 0 {
		return fmt.Errorf("trace of %s has no finished root span", st.ID)
	}
	if st.StartedAt != nil {
		b.sample("service.queue_wait_s", st.StartedAt.Sub(st.CreatedAt).Seconds())
	}
	for _, p := range spansOf(root, obs.SpanPlan) {
		b.sample("service.plan_s", p.DurationMS/1000)
	}
	b.spanSamples(root, res)
	return nil
}

// traceWindow reads the span of one committed follow window from the
// live trace of its job.
func (b *bench) traceWindow(ctx context.Context, jobID string, w int, res opResult) error {
	tr, err := b.d.client.JobTrace(ctx, jobID)
	if err != nil {
		return fmt.Errorf("trace of %s: %w", jobID, err)
	}
	name := fmt.Sprintf("w%d", w)
	for _, s := range spansOf(tr.Root, obs.SpanWindow) {
		if s.Name == name && !s.Unfinished {
			b.spanSamples(s, res)
			return nil
		}
	}
	return fmt.Errorf("trace of %s has no finished span %s", jobID, name)
}

// traceLap samples what a follow job reports once per lap.
func (b *bench) traceLap(ctx context.Context, st client.JobStatus) error {
	if st.StartedAt != nil {
		b.sample("service.queue_wait_s", st.StartedAt.Sub(st.CreatedAt).Seconds())
	}
	tr, err := b.d.client.JobTrace(ctx, st.ID)
	if err != nil {
		return fmt.Errorf("trace of %s: %w", st.ID, err)
	}
	for _, p := range spansOf(tr.Root, obs.SpanPlan) {
		b.sample("service.plan_s", p.DurationMS/1000)
	}
	return nil
}

// spanSamples samples the spans under one op's span: the job root for
// batch and windowed, the window for follow.
func (b *bench) spanSamples(op *obs.Span, res opResult) {
	b.sample("client.overhead_s", res.dur.Seconds()-op.DurationMS/1000)
	un := untracedMS(op)
	b.sample("service.untraced_s", un/1000)
	b.sample("service.untraced_frac", un/op.DurationMS)
	for _, v := range spansOf(op, obs.SpanValidate) {
		b.sample("service.validate_s", v.DurationMS/1000)
	}
	parents := []*obs.Span{op}
	for _, w := range spansOf(op, obs.SpanWindow) {
		b.sample("service.window_p50_s", w.DurationMS/1000)
		if w != op {
			parents = append(parents, w)
		}
	}
	for _, p := range parents {
		var shards []*obs.Span
		for _, c := range p.Children {
			if c.Kind == obs.SpanShard {
				shards = append(shards, c)
			}
		}
		if len(shards) > 0 {
			maxMS, skew := shardSpread(shards)
			b.sample("service.shard_max_s", maxMS/1000)
			b.sample("service.shard_skew", skew)
		}
	}
}

// timedScrape turns the /metrics deltas over the timed phase into
// per-layer samples.
func (b *bench) timedScrape(before, after scrape) {
	fsyncs := after.delta(before, "glove_wal_fsync_seconds_count")
	b.sample("wal.fsync_mean_s", ratio(after.delta(before, "glove_wal_fsync_seconds_sum"), fsyncs))
	b.sample("runtime.gc_pause_s_per_op", ratio(after.delta(before, "glove_process_gc_pause_seconds_total"), float64(len(b.ops))))
}
