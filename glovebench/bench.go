package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/pkg/client"
)

// sizes fixes the shape of every generated input. The defaults are the
// benchmark; tests shrink them.
type sizes struct {
	pool        int // distinct uploads per seed (batch, windowed)
	feeds       int // distinct follow feeds per seed
	warm        int // warm-up ops per set-up: uploads, or windows of the follow warm-up lap
	batchUsers  int
	winUsers    int
	winDays     int
	followUsers int
	followDays  int // feed length; one lap appends 4*days-1 windows
}

func defaultSizes() sizes {
	return sizes{
		pool:        36, // an odd number of trace blocks
		feeds:       12,
		warm:        5,
		batchUsers:  400,
		winUsers:    80,
		winDays:     4,
		followUsers: 400,
		followDays:  4,
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	gloved   string // gloved binary
	work     string // working directory for daemon state and records
	build    string // identifies the binaries under test; keys the record
	setups   int    // fresh daemons booted per run; setup_s is their median
	size     sizes
}

// The job shape is pinned so the plan does not depend on the host.
const (
	jobK       = 2
	jobShards  = 2
	jobWorkers = 2
)

// opResult is one user-visible unit of work.
type opResult struct {
	dur      time.Duration // first request to last release verified
	ingest   time.Duration // the upload or append request
	download time.Duration // release downloads
	bytes    int           // release bytes downloaded
	records  int           // input records released
	traced   bool
}

// bench is the state of one run of one workload.
type bench struct {
	cfg   config
	log   io.Writer // progress and failure reports
	rec   *record
	pool  []input   // batch and windowed uploads
	feeds [][]input // follow feeds, one input per window
	d     *daemon

	attempted, failed int
	setups            []float64
	ops               []opResult

	// Timed-phase accounting: wall and daemon CPU summed over segments
	// (follow pauses the clock between laps).
	timedWall time.Duration
	timedCPU  float64
	segStart  time.Time
	segCPU    float64

	// accs holds the utility of the first finished job on each pool
	// input or feed in this run, keyed by accKey.
	accs  map[string]accPair
	acc   accPair // utility of the pool, averaged over its inputs
	rssMB float64 // daemon peak RSS at the end of the run

	layer map[string][]float64 // per-layer samples of traced ops
}

type accPair struct{ posM, timeMin float64 }

func newBench(cfg config, log io.Writer) (*bench, error) {
	b := &bench{cfg: cfg, log: log, layer: map[string][]float64{}, accs: map[string]accPair{}}
	var err error
	b.rec, err = loadRecord(filepath.Join(cfg.work, "records", fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, cfg.build)))
	if err != nil {
		return nil, err
	}
	s := cfg.size
	switch cfg.workload {
	case "batch":
		b.pool, err = inputPool(cfg.seed, s.pool, s.batchUsers, 1, 0)
	case "windowed":
		b.pool, err = inputPool(cfg.seed, s.pool, s.winUsers, s.winDays, 24*time.Hour)
	case "follow":
		b.feeds, err = feedPool(cfg.seed, s.feeds, s.followUsers, s.followDays, s.warm)
	default:
		err = fmt.Errorf("unknown workload %q (want batch, windowed or follow)", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	for i, in := range b.pool {
		if cfg.workload == "batch" && in.users <= b.analysisCap() {
			return nil, fmt.Errorf("batch input %d holds %d users, not above the analysis cap %d", i, in.users, b.analysisCap())
		}
	}
	return b, nil
}

const followWindow = 6 * time.Hour

// analysisCap is the workload's gloved -analysis-cap: the k-gap and
// linkage passes run only on inputs of at most this many fingerprints.
func (b *bench) analysisCap() int {
	switch b.cfg.workload {
	case "batch":
		// Just below the input size, so the quadratic k-gap pass is
		// skipped, as it is for every dataset above the cap.
		return b.cfg.size.batchUsers * 7 / 8
	case "follow":
		// A follow job ends with a k-gap pass over the whole feed; the
		// workload measures the append path, so the pass is capped off.
		return 1
	}
	return 2000 // gloved's default
}

// daemonArgs returns the gloved flags of the workload.
func (b *bench) daemonArgs() (args []string, durable bool) {
	args = []string{"-max-jobs", "1", "-workers", fmt.Sprint(jobWorkers), "-analysis-cap", fmt.Sprint(b.analysisCap())}
	if b.cfg.workload == "follow" {
		args = append(args, "-columnar", "-fsync=true")
		durable = true
	}
	return args, durable
}

// run boots and warms up the daemon b.cfg.setups times, then runs the
// timed phase on the last one.
func (b *bench) run(ctx context.Context) error {
	args, durable := b.daemonArgs()
	for rep := range b.cfg.setups {
		dataDir := ""
		if durable {
			dataDir = filepath.Join(b.cfg.work, fmt.Sprintf("data-%d", os.Getpid()))
		}
		d, err := startDaemon(ctx, b.cfg.gloved, dataDir, args)
		if err != nil {
			return err
		}
		b.d = d
		ops, records, err := b.warmup(ctx)
		if err != nil {
			d.stop()
			return fmt.Errorf("warm-up: %w", err)
		}
		b.setups = append(b.setups, time.Since(d.started).Seconds())
		// The scrape is outside the set-up clock. A fresh daemon's
		// counters start at zero, so the scrape is the warm-up's delta.
		warm, err := b.scrape(ctx)
		if err != nil {
			d.stop()
			return err
		}
		b.checkCounts(warm, ops, records)
		if rep < b.cfg.setups-1 {
			d.stop()
		}
	}
	defer b.d.stop()

	before, err := b.scrape(ctx)
	if err != nil {
		return err
	}
	if err := b.timed(ctx); err != nil {
		return err
	}
	after, err := b.scrape(ctx)
	if err != nil {
		return err
	}
	if b.rssMB, err = peakRSSMB(b.d.pid()); err != nil {
		return err
	}
	b.timedScrape(before, after)
	return nil
}

// startSegment and endSegment bracket a stretch of the timed phase,
// reading the daemon's CPU once at each end.
func (b *bench) startSegment() error {
	cpu, err := processCPU(b.d.pid())
	if err != nil {
		return err
	}
	b.segCPU = cpu
	b.segStart = time.Now()
	return nil
}

func (b *bench) endSegment() error {
	b.timedWall += time.Since(b.segStart)
	b.segStart = time.Time{}
	cpu, err := processCPU(b.d.pid())
	if err != nil {
		return err
	}
	b.timedCPU += cpu - b.segCPU
	return nil
}

func (b *bench) timeLeft() bool {
	spent := b.timedWall
	if !b.segStart.IsZero() {
		spent += time.Since(b.segStart)
	}
	return spent.Seconds() < b.cfg.seconds
}

// opFailed counts a failed op and reports why.
func (b *bench) opFailed(what string, err error) {
	b.failed++
	fmt.Fprintf(b.log, "glovebench: %s: %v\n", what, err)
}

// scrape reads the daemon's Prometheus exposition.
func (b *bench) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: %s", resp.Status)
	}
	return parseScrape(resp.Body)
}

// checkCounts samples the per-layer counts of a warm-up and checks the
// deterministic ones: every set-up of every run of one seed and build
// must reproduce them exactly. Journal bytes are reported but not
// checked: journal entries carry wall-clock timestamps whose encoded
// length varies by a few bytes.
func (b *bench) checkCounts(s scrape, ops, records int) {
	vals := map[string]float64{
		"core.kernel_calls_per_op": ratio(s["glove_effort_kernel_calls_total"], float64(ops)),
		"core.merges_per_op":       ratio(s["glove_merges_total"], float64(ops)),
		"core.kernel_pruned_frac":  ratio(s["glove_effort_kernel_pruned_total"], s["glove_effort_kernel_calls_total"]),
	}
	for k, v := range vals {
		b.sample(k, v)
		if !b.rec.value(k, v) {
			b.failed++
		}
	}
	b.sample("wal.bytes_per_record", ratio(s["glove_wal_bytes_total"], float64(records)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// download fetches one release and verifies it, returning its bytes.
func download(body io.ReadCloser, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ingestOptions is the dataset metadata of an upload.
func ingestOptions(name string, in input) client.IngestOptions {
	return client.IngestOptions{Name: name, Lat: in.table.Center.Lat, Lon: in.table.Center.Lon, Days: in.table.SpanDays}
}
