package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/api"
	"repro/pkg/client"
)

// warmup runs the untimed part of a set-up on a freshly booted daemon
// and returns how many ops and input records it ingested: the first
// pool inputs once each, or a short lap of the first follow feed.
func (b *bench) warmup(ctx context.Context) (ops, records int, err error) {
	n := b.cfg.size.warm
	if b.cfg.workload == "follow" {
		feed := b.feeds[0]
		for w := 0; w <= n; w++ {
			records += len(feed[w].table.Records)
		}
		st, done, err := b.followLap(ctx, 0, n, false)
		if err != nil {
			return 0, 0, err
		}
		if done == n {
			b.recordAccuracy("warm.acc", st)
		}
		return done, records, nil
	}
	for i := range min(n, len(b.pool)) {
		if _, err := b.poolOp(ctx, i, false); err != nil {
			if ctx.Err() != nil {
				return 0, 0, ctx.Err()
			}
			continue
		}
		records += len(b.pool[i].table.Records)
		ops++
	}
	return ops, records, nil
}

// recordAccuracy keeps the utility medians of the first finished job on
// an input in this run, and checks every job's medians against every
// earlier job on the same input.
func (b *bench) recordAccuracy(key string, st client.JobStatus) {
	if st.Accuracy == nil {
		b.opFailed(key, fmt.Errorf("job %s reports no accuracy", st.ID))
		return
	}
	if _, ok := b.accs[key]; !ok {
		b.accs[key] = accPair{posM: st.Accuracy.MedianPositionM, timeMin: st.Accuracy.MedianTimeMin}
	}
	okPos := b.rec.value(key+".pos_m", st.Accuracy.MedianPositionM)
	okTime := b.rec.value(key+".time_min", st.Accuracy.MedianTimeMin)
	if !okPos || !okTime {
		b.failed++
	}
}

// accKey names pool input i, or feed i on follow, in b.accs and the
// record.
func (b *bench) accKey(i int) string {
	if b.cfg.workload == "follow" {
		return fmt.Sprintf("f%d.acc", i)
	}
	return fmt.Sprintf("in%d.acc", i)
}

// covered reports whether pool input or feed i has a finished job in
// this run.
func (b *bench) covered(i int) bool {
	_, ok := b.accs[b.accKey(i)]
	return ok
}

// poolAccuracy averages each input's median generalization in this run
// over the pool inputs (or feeds). A job's median moves in steps of the
// antenna grid; the mean over the pool resolves changes finer than one
// step.
func (b *bench) poolAccuracy() accPair {
	n := len(b.pool)
	if b.cfg.workload == "follow" {
		n = len(b.feeds)
	}
	var acc accPair
	for i := range n {
		a := b.accs[b.accKey(i)]
		acc.posM += a.posM / float64(n)
		acc.timeMin += a.timeMin / float64(n)
	}
	return acc
}

// poolOp runs one op on pool input i and records its utility.
func (b *bench) poolOp(ctx context.Context, i int, traced bool) (opResult, error) {
	res, st, err := b.jobOp(ctx, i, traced)
	b.attempted++
	if err != nil {
		b.opFailed(fmt.Sprintf("op on input %d", i), err)
		return res, err
	}
	b.recordAccuracy(b.accKey(i), st)
	return res, nil
}

// timed runs the measured phase, then covers untimed whatever pool
// input or feed the phase did not reach, so the utility medians always
// rest on the whole pool.
func (b *bench) timed(ctx context.Context) error {
	if b.cfg.workload == "follow" {
		errs := 0
		lap := func(f int, timed bool) error {
			_, _, err := b.followLap(ctx, f, len(b.feeds[f])-1, timed)
			if err != nil {
				fmt.Fprintf(b.log, "glovebench: follow lap on feed %d: %v\n", f, err)
				if errs++; errs >= maxLapErrors || ctx.Err() != nil {
					return fmt.Errorf("giving up after %d failed laps: %w", errs, err)
				}
			}
			return nil
		}
		for i := 0; b.timeLeft(); i++ {
			if err := lap(i%len(b.feeds), true); err != nil {
				return err
			}
		}
		for f := range b.feeds {
			if !b.covered(f) {
				if err := lap(f, false); err != nil {
					return err
				}
			}
		}
		b.acc = b.poolAccuracy()
		return nil
	}
	if err := b.startSegment(); err != nil {
		return err
	}
	for i := 0; b.timeLeft(); i++ {
		res, err := b.poolOp(ctx, i%len(b.pool), b.tracedOp(i))
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		b.ops = append(b.ops, res)
	}
	if err := b.endSegment(); err != nil {
		return err
	}
	for i := range b.pool {
		if !b.covered(i) {
			if _, err := b.poolOp(ctx, i, false); err != nil && ctx.Err() != nil {
				return ctx.Err()
			}
		}
	}
	b.acc = b.poolAccuracy()
	return nil
}

// traceBlock is how many consecutive ops a traced run leaves untraced,
// then traces, in turn. The pool holds an odd number of blocks, so over
// two passes every input is run both ways; on follow a block is one day
// of windows. The difference between the halves is the tracing
// overhead.
const traceBlock = 4

func (b *bench) tracedOp(i int) bool {
	return b.cfg.trace && (i/traceBlock)%2 == 1
}

// jobOp runs one batch or windowed op on pool input i: upload it as a
// new dataset, run a job, download and verify every release, and wait
// for the job to finish. The job is purged and the dataset deleted
// after the op's clock stops, so no result cache can turn a repeated
// input into a hit and daemon memory does not grow with the run.
func (b *bench) jobOp(ctx context.Context, i int, traced bool) (opResult, client.JobStatus, error) {
	in := b.pool[i]
	c := b.d.client
	windowed := b.cfg.workload == "windowed"
	var res opResult
	t0 := time.Now()
	info, err := c.CreateDataset(ctx, bytes.NewReader(in.csv), ingestOptions(fmt.Sprintf("in%d", i), in))
	res.ingest = time.Since(t0)
	if err != nil {
		return res, client.JobStatus{}, fmt.Errorf("upload: %w", err)
	}
	defer func() {
		if err := c.DeleteDataset(ctx, info.ID); err != nil {
			b.opFailed("deleting dataset "+info.ID, err)
		}
	}()
	spec := client.JobSpec{DatasetID: info.ID, K: jobK, Shards: jobShards, Workers: jobWorkers}
	if windowed {
		spec.WindowHours = 24
	}
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		return res, client.JobStatus{}, fmt.Errorf("submit: %w", err)
	}
	defer func() {
		if err := c.PurgeJob(ctx, st.ID); err != nil {
			b.opFailed("purging job "+st.ID, err)
		}
	}()

	fetch := func(key string, window, users int) error {
		t := time.Now()
		var data []byte
		var err error
		if window < 0 {
			data, err = download(c.JobResult(ctx, st.ID))
		} else {
			data, err = download(c.WindowResult(ctx, st.ID, window))
		}
		res.download += time.Since(t)
		if err != nil {
			return fmt.Errorf("downloading %s: %w", key, err)
		}
		res.bytes += len(data)
		sum, err := verifyRelease(data, jobK, users)
		if err != nil {
			return fmt.Errorf("release %s: %w", key, err)
		}
		if !b.rec.digest(key, sum) {
			return fmt.Errorf("release %s differs from an earlier release of the same input", key)
		}
		return nil
	}

	// Windowed releases are downloaded as their window events arrive,
	// while later windows still run.
	watchCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var werr error
	seen := 0
	final, err := c.WatchJob(watchCtx, st.ID, func(ev client.JobEvent) {
		if !windowed || werr != nil || ev.Type != api.EventWindow || ev.Window == nil || ev.Window.State != api.WindowDone {
			return
		}
		idx := ev.Window.Index
		users, ok := in.windowUsers[idx]
		if !ok {
			werr = fmt.Errorf("job released window %d, input has no such window", idx)
		} else {
			werr = fetch(fmt.Sprintf("in%d.w%d", i, idx), idx, users)
		}
		seen++
		if werr != nil {
			cancel()
		}
	})
	if werr != nil {
		return res, final, werr
	}
	if err != nil {
		return res, final, fmt.Errorf("watching job: %w", err)
	}
	if final.State != api.JobDone {
		return res, final, fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	if windowed {
		if seen != len(in.windowUsers) {
			return res, final, fmt.Errorf("job released %d windows, input has %d", seen, len(in.windowUsers))
		}
	} else if err := fetch(fmt.Sprintf("in%d", i), -1, in.users); err != nil {
		return res, final, err
	}
	res.dur = time.Since(t0)
	res.records = len(in.table.Records)
	res.traced = traced
	if traced {
		if err := b.traceJob(ctx, final, res); err != nil {
			return res, final, err
		}
	}
	return res, final, nil
}

// followLap runs one follow job over a fresh copy of feed f: create
// the dataset with window 0, submit a follow job bounded to n windows,
// then n ops, each appending window w+1 (which closes window w),
// waiting for window w's release event, and downloading and verifying
// that release. The timed clock covers the ops only; creating the feed
// and retiring the job are untimed. A lap that stops early (out of
// time, or a failed op) cancels its job; the cancellation is not an op.
// It returns the job's final status and how many ops completed.
func (b *bench) followLap(ctx context.Context, f, n int, timed bool) (client.JobStatus, int, error) {
	c := b.d.client
	feed := b.feeds[f]
	info, err := c.CreateDataset(ctx, bytes.NewReader(feed[0].csv), ingestOptions(fmt.Sprintf("f%d", f), feed[0]))
	if err != nil {
		return client.JobStatus{}, 0, fmt.Errorf("creating feed: %w", err)
	}
	st, err := c.SubmitJob(ctx, client.JobSpec{
		DatasetID: info.ID, K: jobK, Shards: jobShards, Workers: jobWorkers,
		WindowHours: followWindow.Hours(), Follow: true, FollowWindows: n,
	})
	if err != nil {
		return client.JobStatus{}, 0, fmt.Errorf("submitting follow job: %w", err)
	}
	wt := watch(ctx, c, st.ID, n)
	done, opErr := b.followOps(ctx, wt, f, info.ID, n, timed)
	if done < n {
		if _, err := c.CancelJob(ctx, st.ID); err != nil {
			wt.stop()
			return client.JobStatus{}, done, errors.Join(opErr, fmt.Errorf("cancelling follow job: %w", err))
		}
	}
	select {
	case <-wt.done:
	case <-time.After(opTimeout):
		wt.stop()
		return client.JobStatus{}, done, errors.Join(opErr, fmt.Errorf("follow job %s still running %v after its last window", st.ID, opTimeout))
	}
	if opErr != nil {
		return wt.st, done, opErr
	}
	if wt.err != nil {
		return wt.st, done, fmt.Errorf("watching follow job: %w", wt.err)
	}
	if done == n {
		if wt.st.State != api.JobDone {
			b.failed++
			return wt.st, done, fmt.Errorf("follow job %s ended %s: %s", st.ID, wt.st.State, wt.st.Error)
		}
		if n == len(feed)-1 {
			b.recordAccuracy(b.accKey(f), wt.st)
		}
		if timed && b.cfg.trace {
			if err := b.traceLap(ctx, wt.st); err != nil {
				return wt.st, done, err
			}
		}
	}
	if err := c.PurgeJob(ctx, st.ID); err != nil {
		return wt.st, done, fmt.Errorf("purging follow job: %w", err)
	}
	if err := c.DeleteDataset(ctx, info.ID); err != nil {
		return wt.st, done, fmt.Errorf("deleting feed: %w", err)
	}
	return wt.st, done, nil
}

// followOps runs the ops of one lap, inside a timed segment when timed,
// and returns how many completed.
func (b *bench) followOps(ctx context.Context, wt *watcher, f int, dsID string, n int, timed bool) (int, error) {
	if timed {
		if err := b.startSegment(); err != nil {
			return 0, err
		}
	}
	done := 0
	var opErr error
	for w := 0; w < n && (!timed || b.timeLeft()); w++ {
		res, err := b.followOp(ctx, wt, f, dsID, w)
		b.attempted++
		if err != nil {
			b.failed++
			opErr = fmt.Errorf("feed %d window %d: %w", f, w, err)
			break
		}
		res.traced = timed && b.tracedOp(w)
		if res.traced {
			if err := b.traceWindow(ctx, wt.jobID, w, res); err != nil {
				opErr = err
				break
			}
		}
		if timed {
			b.ops = append(b.ops, res)
		}
		done++
	}
	if timed {
		if err := b.endSegment(); err != nil {
			return done, errors.Join(opErr, err)
		}
	}
	return done, opErr
}

// maxLapErrors ends a follow run whose laps keep failing.
const maxLapErrors = 3

// opTimeout bounds every wait on the daemon, so a stuck job fails the
// run instead of hanging it.
const opTimeout = 60 * time.Second

// watcher follows one job's event stream on its own goroutine and
// forwards its terminal window events.
type watcher struct {
	jobID  string
	events chan client.JobEvent
	done   chan struct{} // closed after st and err are set
	st     client.JobStatus
	err    error
	cancel context.CancelFunc
}

// watch starts a watcher for a job that publishes at most n windows;
// the channel holds them all, so the stream is never blocked on the
// consumer.
func watch(ctx context.Context, c *client.Client, jobID string, n int) *watcher {
	wctx, cancel := context.WithCancel(ctx)
	wt := &watcher{jobID: jobID, events: make(chan client.JobEvent, n), done: make(chan struct{}), cancel: cancel}
	go func() {
		defer close(wt.done)
		wt.st, wt.err = c.WatchJob(wctx, jobID, func(ev client.JobEvent) {
			if ev.Type == api.EventWindow && ev.Window != nil && ev.Window.State != api.WindowRunning {
				wt.events <- ev
			}
		})
	}()
	return wt
}

func (wt *watcher) stop() {
	wt.cancel()
	<-wt.done
}

// followOp is one follow op: append window w+1, which closes window w,
// then take window w's release.
func (b *bench) followOp(ctx context.Context, wt *watcher, f int, dsID string, w int) (opResult, error) {
	c := b.d.client
	feed := b.feeds[f]
	var res opResult
	t0 := time.Now()
	if _, err := c.AppendRecords(ctx, dsID, bytes.NewReader(feed[w+1].csv)); err != nil {
		return res, fmt.Errorf("append: %w", err)
	}
	res.ingest = time.Since(t0)
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()
	select {
	case ev := <-wt.events:
		if ev.Window.Index != w || ev.Window.State != api.WindowDone {
			return res, fmt.Errorf("expected window %d done, got window %d %s", w, ev.Window.Index, ev.Window.State)
		}
	case <-wt.done:
		return res, fmt.Errorf("job ended %s before window %d: %v %s", wt.st.State, w, wt.err, wt.st.Error)
	case <-timer.C:
		return res, fmt.Errorf("no release of window %d after %v", w, opTimeout)
	}
	t1 := time.Now()
	data, err := download(c.WindowResult(ctx, wt.jobID, w))
	res.download = time.Since(t1)
	if err != nil {
		return res, fmt.Errorf("downloading window %d: %w", w, err)
	}
	res.bytes = len(data)
	in := feed[w]
	sum, err := verifyRelease(data, jobK, in.users)
	if err != nil {
		return res, fmt.Errorf("release of window %d: %w", w, err)
	}
	if !b.rec.digest(fmt.Sprintf("f%d.w%d", f, w), sum) {
		return res, fmt.Errorf("release of window %d differs from an earlier release of it", w)
	}
	res.dur = time.Since(t0)
	res.records = len(in.table.Records)
	return res, nil
}
