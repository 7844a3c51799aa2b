package main

import "fmt"

// endToEndUnits and layerUnits name every reported metric with its
// unit; BENCHMARK.json lists the same names (pinned by a test).
var endToEndUnits = map[string]string{
	"setup_s":             "s",
	"release_p50_s":       "s",
	"release_p90_s":       "s",
	"records_per_s":       "1/s",
	"append_p50_s":        "s",
	"cpu_s_per_op":        "s",
	"peak_rss_mb":         "MB",
	"pos_err_median_m":    "m",
	"time_err_median_min": "min",
}

var layerUnits = map[string]string{
	"client.upload_s":           "s",
	"client.download_s":         "s",
	"client.release_bytes":      "bytes",
	"client.overhead_s":         "s",
	"service.queue_wait_s":      "s",
	"service.plan_s":            "s",
	"service.shard_max_s":       "s",
	"service.shard_skew":        "ratio",
	"service.cpu_util":          "ratio",
	"service.untraced_s":        "s",
	"service.untraced_frac":     "ratio",
	"service.window_p50_s":      "s",
	"service.validate_s":        "s",
	"wal.fsync_mean_s":          "s",
	"wal.bytes_per_record":      "bytes",
	"wal.commit_s":              "s",
	"cdr.parse_mb_per_s":        "MB/s",
	"cdr.window_split_s":        "s",
	"cdr.build_dataset_s":       "s",
	"colstore.append_s":         "s",
	"colstore.tail_windows_s":   "s",
	"core.anonymize_s":          "s",
	"core.session_window_s":     "s",
	"core.validate_s":           "s",
	"core.kernel_calls_per_op":  "count",
	"core.kernel_pruned_frac":   "ratio",
	"core.merges_per_op":        "count",
	"analysis.kgap_s":           "s",
	"analysis.linkage_s":        "s",
	"metrics.measure_s":         "s",
	"runtime.gc_pause_s_per_op": "s",
	"trace.overhead_frac":       "ratio",
}

// opTimes returns the op durations in seconds, of traced or untraced
// ops only.
func (b *bench) opTimes(traced bool) []float64 {
	var out []float64
	for _, op := range b.ops {
		if op.traced == traced {
			out = append(out, op.dur.Seconds())
		}
	}
	return out
}

// endToEnd assembles the metrics of an untraced run.
func (b *bench) endToEnd() map[string]metric {
	var ingest []float64
	records := 0
	for _, op := range b.ops {
		ingest = append(ingest, op.ingest.Seconds())
		records += op.records
	}
	times := b.opTimes(false)
	v := map[string]float64{
		"setup_s":             median(b.setups),
		"release_p50_s":       quantile(times, 0.5),
		"release_p90_s":       quantile(times, 0.9),
		"records_per_s":       float64(records) / b.timedWall.Seconds(),
		"append_p50_s":        median(ingest),
		"cpu_s_per_op":        b.timedCPU / float64(len(b.ops)),
		"peak_rss_mb":         b.rssMB,
		"pos_err_median_m":    b.acc.posM,
		"time_err_median_min": b.acc.timeMin,
	}
	return withUnits(v, endToEndUnits)
}

// layerMetrics assembles the metrics of a traced run: the median of
// every sample of this run (traced ops, warm-up counts, in-process
// timings) and the tracing overhead.
func (b *bench) layerMetrics() map[string]metric {
	var upload, download, bytes []float64
	for _, op := range b.ops {
		upload = append(upload, op.ingest.Seconds())
		download = append(download, op.download.Seconds())
		bytes = append(bytes, float64(op.bytes))
	}
	b.layer["client.upload_s"] = upload
	b.layer["client.download_s"] = download
	b.layer["client.release_bytes"] = bytes
	b.layer["service.cpu_util"] = []float64{b.timedCPU / (b.timedWall.Seconds() * jobWorkers)}
	b.layer["trace.overhead_frac"] = []float64{median(b.opTimes(true))/median(b.opTimes(false)) - 1}

	v := map[string]float64{}
	for name := range layerUnits {
		if xs := b.layer[name]; len(xs) > 0 {
			v[name] = median(xs)
		} else {
			// The workload never reaches this layer's spans (no plan span
			// on follow, no window span on batch).
			v[name] = 0
		}
	}
	return withUnits(v, layerUnits)
}

func withUnits(v map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(v))
	for name, x := range v {
		out[name] = metric{Value: x, Unit: units[name]}
	}
	return out
}

// report prints the run's sample counts to standard error: the op
// count behind each percentile and the highest percentile that keeps
// ten samples beyond it.
func (b *bench) report() {
	n := len(b.opTimes(false))
	fmt.Fprintf(b.log, "glovebench: %s seed %d: %d timed ops (%d untraced) in %.1f s, %d set-ups, %d attempted, %d failed; highest percentile with 10 samples beyond: p%g\n",
		b.cfg.workload, b.cfg.seed, len(b.ops), n, b.timedWall.Seconds(), len(b.setups),
		b.attempted, b.failed, supportedPercentile(n, 10, 50, 75, 90, 95, 99))
}
