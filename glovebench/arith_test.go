package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cdr"
	"repro/internal/core"
	"repro/internal/obs"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{19, 0},
		{20, 50},
		{39, 50},
		{40, 75},
		{99, 75},
		{100, 90},
		{199, 90},
		{200, 95},
		{1000, 99},
	} {
		if got := supportedPercentile(tc.n, 10, 50, 75, 90, 95, 99); got != tc.want {
			t.Errorf("supportedPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// cannedTrace is a GET /v1/jobs/{id}/trace payload of a 100 ms batch
// job: plan [0,2), two overlapping shards [2,80) and [3,90) with their
// own children, validate [90,91), and 9 ms no span accounts for.
const cannedTrace = `{
  "job_id": "job-000007", "state": "done",
  "root": {"kind": "job", "name": "job-000007", "start": "2026-01-01T00:00:00Z", "duration_ms": 100,
    "children": [
      {"kind": "plan", "start": "2026-01-01T00:00:00Z", "duration_ms": 2},
      {"kind": "shard", "name": "shard 0", "start": "2026-01-01T00:00:00.002Z", "duration_ms": 78,
        "children": [
          {"kind": "index_build", "start": "2026-01-01T00:00:00.002Z", "duration_ms": 50},
          {"kind": "merge", "start": "2026-01-01T00:00:00.052Z", "duration_ms": 20}
        ]},
      {"kind": "shard", "name": "shard 1", "start": "2026-01-01T00:00:00.003Z", "duration_ms": 87},
      {"kind": "validate", "start": "2026-01-01T00:00:00.090Z", "duration_ms": 1}
    ]}
}`

func TestSpanArithmeticFromCannedTrace(t *testing.T) {
	var tr struct {
		Root *obs.Span `json:"root"`
	}
	if err := json.Unmarshal([]byte(cannedTrace), &tr); err != nil {
		t.Fatal(err)
	}
	root := tr.Root
	if got := untracedMS(root); math.Abs(got-9) > 1e-6 {
		t.Errorf("untraced = %g ms, want 9", got)
	}
	shards := spansOf(root, obs.SpanShard)
	if len(shards) != 2 {
		t.Fatalf("found %d shard spans, want 2", len(shards))
	}
	// Shard 0's children cover 70 of its 78 ms.
	if got := untracedMS(shards[0]); math.Abs(got-8) > 1e-6 {
		t.Errorf("shard 0 self time = %g ms, want 8", got)
	}
	maxMS, skew := shardSpread(shards)
	if maxMS != 87 || math.Abs(skew-87/82.5) > 1e-12 {
		t.Errorf("shard spread = %g ms x%g, want 87 ms x%g", maxMS, skew, 87/82.5)
	}
	if got := len(spansOf(root, obs.SpanMerge)); got != 1 {
		t.Errorf("found %d merge spans, want 1", got)
	}
	// A child reaching past its parent counts only inside the parent.
	clipped := &obs.Span{Start: root.Start, DurationMS: 10, Children: []*obs.Span{{Start: root.Start.Add(msDuration(5)), DurationMS: 50}}}
	if got := untracedMS(clipped); math.Abs(got-5) > 1e-6 {
		t.Errorf("clipped self time = %g ms, want 5", got)
	}
}

func TestParseStatCPU(t *testing.T) {
	// Fields 14 and 15 (utime, stime) are 250 and 37 ticks; the command
	// name holds a space and a parenthesis.
	line := "4242 (glo ved) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 37 0 0 20 0 9 0 12345 0 0\n"
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.87) > 1e-12 {
		t.Errorf("cpu = %g s, want 2.87", got)
	}
	before, _ := parseStatCPU(strings.Replace(line, " 250 37 ", " 200 30 ", 1))
	if d := got - before; math.Abs(d-0.57) > 1e-12 {
		t.Errorf("delta = %g s, want 0.57", d)
	}
	for _, bad := range []string{"4242 gloved S 1", "4242 (gloved) S 1 2 3", "4242 (gloved) S 1 1 1 0 -1 0 0 0 0 0 x 3 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	doc := "Name:\tgloved\nVmPeak:\t  812344 kB\nVmHWM:\t   20168 kB\nVmRSS:\t   19000 kB\n"
	got, err := parseStatusKB(doc, "VmHWM")
	if err != nil || got != 20168 {
		t.Errorf("VmHWM = %d, %v; want 20168", got, err)
	}
	if _, err := parseStatusKB(doc, "VmSwap"); err == nil {
		t.Error("missing field accepted")
	}
}

const exposition = `# HELP glove_merges_total Merges.
# TYPE glove_merges_total counter
glove_merges_total 150
# HELP glove_jobs_finished_total Finished jobs.
# TYPE glove_jobs_finished_total counter
glove_jobs_finished_total{state="done"} 3
glove_jobs_finished_total{state="failed"} 1
# HELP glove_wal_fsync_seconds Fsync latency.
# TYPE glove_wal_fsync_seconds histogram
glove_wal_fsync_seconds_bucket{le="0.001"} 2
glove_wal_fsync_seconds_bucket{le="+Inf"} 4
glove_wal_fsync_seconds_sum 0.006
glove_wal_fsync_seconds_count 4
`

func TestScrapeDeltas(t *testing.T) {
	before, err := parseScrape(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	later := strings.NewReplacer("glove_merges_total 150", "glove_merges_total 450",
		`le="+Inf"} 4`, `le="+Inf"} 10`, "_sum 0.006", "_sum 0.018", "_count 4", "_count 10").Replace(exposition)
	after, err := parseScrape(strings.NewReader(later))
	if err != nil {
		t.Fatal(err)
	}
	if d := after.delta(before, "glove_merges_total"); d != 300 {
		t.Errorf("merges delta = %g, want 300", d)
	}
	if got := before["glove_jobs_finished_total"]; got != 4 {
		t.Errorf("labelled series sum = %g, want 4", got)
	}
	mean := ratio(after.delta(before, "glove_wal_fsync_seconds_sum"), after.delta(before, "glove_wal_fsync_seconds_count"))
	if math.Abs(mean-0.002) > 1e-12 {
		t.Errorf("fsync mean = %g, want 0.002", mean)
	}
	// The strict parser rejects what a lenient reader would misread as
	// zero: here a histogram whose +Inf bucket disagrees with _count.
	bad := strings.Replace(exposition, "_count 4", "_count 5", 1)
	if _, err := parseScrape(strings.NewReader(bad)); err == nil {
		t.Error("inconsistent histogram accepted")
	}
}

func TestVerifyRelease(t *testing.T) {
	group := func(id string, count int) *core.Fingerprint {
		f := core.NewFingerprint(id, []core.Sample{{X: 0, DX: 100, Y: 0, DY: 100, T: 10, DT: 5, Weight: count}})
		f.Count = count
		return f
	}
	var buf bytes.Buffer
	if err := cdr.WriteAnonymizedCSV(&buf, core.NewDataset([]*core.Fingerprint{group("g1", 2), group("g2", 3)})); err != nil {
		t.Fatal(err)
	}
	sum, err := verifyRelease(buf.Bytes(), 2, 5)
	if err != nil || len(sum) != 64 {
		t.Fatalf("verifyRelease = %q, %v", sum, err)
	}
	if _, err := verifyRelease(buf.Bytes(), 3, 5); err == nil {
		t.Error("a group of 2 passed a k=3 check")
	}
	if _, err := verifyRelease(buf.Bytes(), 2, 6); err == nil {
		t.Error("a release hiding 5 of 6 users passed")
	}
	if _, err := verifyRelease([]byte("user,lat,lon,minute\n"), 2, 0); err == nil {
		t.Error("a raw CSV passed as a release")
	}
}

func TestRecordDeterminism(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records", "batch-seed3.json")
	r, err := loadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.digest("in0", "aa") || !r.value("in0.acc.pos_m", 2100) {
		t.Fatal("first observations reported as moved")
	}
	if err := r.save(); err != nil {
		t.Fatal(err)
	}
	r2, err := loadRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.digest("in0", "aa") || !r2.value("in0.acc.pos_m", 2100) {
		t.Error("repeats after a reload reported as moved")
	}
	if r2.digest("in0", "bb") || r2.value("in0.acc.pos_m", math.Nextafter(2100, 3000)) {
		t.Error("changed values not reported")
	}
	if len(r2.moved) != 2 || !strings.Contains(r2.moved[1], "in0.acc.pos_m") {
		t.Errorf("moved = %q, want both keys named", r2.moved)
	}
}

// TestBuildIDKeysRecords checks that a different gloved binary gets a
// different record, so no build is checked against another's values.
func TestBuildIDKeysRecords(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	for p, body := range map[string]string{a: "gloved v1", b: "gloved v2"} {
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	idA, err := buildID(a)
	if err != nil {
		t.Fatal(err)
	}
	idA2, _ := buildID(a)
	idB, _ := buildID(b)
	if idA != idA2 || idA == idB || len(idA) != 16 {
		t.Errorf("buildID: a=%s again=%s b=%s", idA, idA2, idB)
	}
	if _, err := buildID(filepath.Join(dir, "missing")); err == nil {
		t.Error("buildID of a missing binary succeeded")
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps glovebench and BENCHMARK.json
// in step: every declared metric is reported under its declared unit.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, decl []struct{ Name, Unit string }, units map[string]string) {
		if len(decl) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, glovebench reports %d", kind, len(decl), len(units))
		}
		for _, m := range decl {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s declared in %q, glovebench reports %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndUnits)
	check("per_layer", decl.PerLayer, layerUnits)
}
