package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/cdr"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// layerReps is how often each in-process call is timed per input; the
// reported value is the median over inputs and repetitions.
const layerReps = 3

// timeCall runs fn once untimed, then layerReps times timed, adding
// each duration in seconds to the named per-layer metric.
func (b *bench) timeCall(name string, fn func() error) error {
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for range layerReps {
		t := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		b.sample(name, time.Since(t).Seconds())
	}
	return nil
}

// layerInputs picks the units the in-process timings run on: what one
// op hands the daemon (a whole upload, or one appended feed window),
// plus the time window the daemon anonymizes per run.
func (b *bench) layerInputs() (ops []input, window time.Duration) {
	switch b.cfg.workload {
	case "follow":
		return b.feeds[0][1:4], followWindow
	default:
		return b.pool[:min(len(b.pool), 3)], 24 * time.Hour
	}
}

// inProcessLayers times calls into the public functions of each layer
// on the run's own inputs, with the daemon already stopped. A pass the
// daemon path skips for this workload (the k-gap and linkage analyses
// above the analysis cap) is reported as 0.
func (b *bench) inProcessLayers(ctx context.Context) error {
	ins, window := b.layerInputs()
	capFPs := b.analysisCap()
	opt := core.AnonymizeOptions{Glove: core.GloveOptions{K: jobK, Workers: 1}}
	for _, in := range ins {
		if err := b.cdrLayer(in, window); err != nil {
			return err
		}
		if err := b.colstoreLayer(in, window); err != nil {
			return err
		}
		if err := b.walLayer(in); err != nil {
			return err
		}
		full, err := in.table.BuildDataset()
		if err != nil {
			return err
		}
		if full.Len() <= capFPs {
			if err := b.timeCall("analysis.kgap_s", func() error {
				_, _, err := analysis.KGapCDF(core.DefaultParams(), full, jobK, jobWorkers)
				return err
			}); err != nil {
				return err
			}
		} else {
			b.sample("analysis.kgap_s", 0)
		}

		// The daemon anonymizes each time window in shards of about half
		// the window's users, one worker per shard.
		wins, err := in.table.SplitByWindow(window)
		if err != nil {
			return err
		}
		var originals, releases []*core.Dataset
		users := 0
		for wi, w := range wins {
			ds, err := w.Table.BuildDataset()
			if err != nil {
				return err
			}
			out, _, err := core.AnonymizeContext(ctx, ds, core.AnonymizeOptions{Glove: core.GloveOptions{K: jobK, Workers: jobWorkers}})
			if err != nil {
				return err
			}
			originals, releases = append(originals, ds), append(releases, out)
			users += ds.Len()
			if wi > 0 {
				continue
			}
			shard, err := w.Table.UserShards(jobShards, 0)[0].BuildDataset()
			if err != nil {
				return err
			}
			var rel *core.Dataset
			if err := b.timeCall("core.anonymize_s", func() error {
				rel, _, err = core.AnonymizeContext(ctx, shard, opt)
				return err
			}); err != nil {
				return err
			}
			sess := core.NewWindowedSession()
			if err := b.timeCall("core.session_window_s", func() error {
				_, _, err := sess.Anonymize(ctx, shard, opt)
				return err
			}); err != nil {
				return err
			}
			if err := b.timeCall("core.validate_s", func() error { return core.ValidateKAnonymity(rel, jobK) }); err != nil {
				return err
			}
			if err := b.timeCall("metrics.measure_s", func() error {
				_, err := metrics.Measure(out).Summarize()
				return err
			}); err != nil {
				return err
			}
		}
		if len(wins) > 1 && users <= capFPs {
			if err := b.timeCall("analysis.linkage_s", func() error {
				_, err := analysis.CrossWindowLinkage(originals, releases, 4, 200, rand.New(rand.NewSource(1)), jobWorkers)
				return err
			}); err != nil {
				return err
			}
		} else {
			b.sample("analysis.linkage_s", 0)
		}
	}
	return nil
}

// cdrLayer times CSV parsing, window splitting and dataset building.
func (b *bench) cdrLayer(in input, window time.Duration) error {
	for range layerReps {
		t := time.Now()
		rr := cdr.NewRecordReader(bytes.NewReader(in.csv))
		for {
			if _, err := rr.Next(); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("parsing: %w", err)
			}
		}
		b.sample("cdr.parse_mb_per_s", float64(len(in.csv))/1e6/time.Since(t).Seconds())
	}
	if err := b.timeCall("cdr.window_split_s", func() error {
		_, err := in.table.WindowSplit(window)
		return err
	}); err != nil {
		return err
	}
	return b.timeCall("cdr.build_dataset_s", func() error {
		_, err := in.table.BuildDataset()
		return err
	})
}

// colstoreLayer times appending one op's records to a columnar store
// and cutting the appended records into windows.
func (b *bench) colstoreLayer(in input, window time.Duration) error {
	var store *colstore.Store
	defer func() {
		if store != nil {
			store.Close()
		}
	}()
	if err := b.timeCall("colstore.append_s", func() error {
		if store != nil {
			store.Close()
		}
		store = colstore.New(in.table.TableMeta(), colstore.Options{})
		i := 0
		_, err := store.AppendStream(func() (cdr.Record, error) {
			if i == len(in.table.Records) {
				return cdr.Record{}, io.EOF
			}
			i++
			return in.table.Records[i-1], nil
		}, -1)
		return err
	}); err != nil {
		return err
	}
	view := store.Snapshot()
	return b.timeCall("colstore.tail_windows_s", func() error {
		_, err := view.TailWindows(0, window)
		return err
	})
}

// walLayer times appending and fsyncing one op's upload as a journal
// frame, on the filesystem the durable daemon journals to.
func (b *bench) walLayer(in input) error {
	dir := filepath.Join(b.cfg.work, fmt.Sprintf("wal-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{Fsync: true})
	if err != nil {
		return err
	}
	err = b.timeCall("wal.commit_s", func() error {
		if err := log.Append(in.csv); err != nil {
			return err
		}
		return log.Commit()
	})
	return errors.Join(err, log.Close())
}
