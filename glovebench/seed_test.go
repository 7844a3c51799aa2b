package main

import (
	"bytes"
	"context"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// tinySizes shrinks every workload so a run takes about a second.
func tinySizes() sizes {
	return sizes{
		pool:        4,
		feeds:       2,
		warm:        2,
		batchUsers:  60,
		winUsers:    24,
		winDays:     2,
		followUsers: 80,
		followDays:  2,
	}
}

// buildGloved builds gloved from this tree into dir.
func buildGloved(t *testing.T, dir string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and drives gloved")
	}
	gloved := filepath.Join(dir, "gloved")
	if out, err := exec.Command("go", "build", "-o", gloved, "../cmd/gloved").CombinedOutput(); err != nil {
		t.Fatalf("building gloved: %v\n%s", err, out)
	}
	return gloved
}

// tinyConfig is a run of one workload on seed 97 at the tiny size.
func tinyConfig(workload string, trace bool, gloved, work string) config {
	return config{
		workload: workload, seed: 97, seconds: 0.5, trace: trace,
		gloved: gloved, work: work, build: "test", setups: 2, size: tinySizes(),
	}
}

// TestSecondSeedTiny runs every workload end to end against a real
// gloved on seed 97 — not the default seed the benchmark was tuned
// on — at a tiny size, untraced and traced, and runs one workload twice
// so the second run is checked against the first run's record.
func TestSecondSeedTiny(t *testing.T) {
	dir := t.TempDir()
	gloved := buildGloved(t, dir)
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"batch", false}, {"batch", false}, {"windowed", false}, {"follow", false},
		{"batch", true}, {"windowed", true}, {"follow", true},
	} {
		var log bytes.Buffer
		res, err := runBench(context.Background(), tinyConfig(tc.workload, tc.trace, gloved, filepath.Join(dir, "work")), &log)
		if err != nil {
			t.Fatalf("%s trace=%v: %v\n%s", tc.workload, tc.trace, err, log.String())
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
				tc.workload, tc.trace, res.Correct, res.Attempted, res.Failed, log.String())
		}
		want := endToEndUnits
		if tc.trace {
			want = layerUnits
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%s trace=%v: %d metrics, want %d", tc.workload, tc.trace, len(res.Metrics), len(want))
		}
		for name, m := range res.Metrics {
			if m.Unit != want[name] || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s trace=%v: %s = %g %s", tc.workload, tc.trace, name, m.Value, m.Unit)
			}
			if !tc.trace && m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, want > 0", tc.workload, name, m.Value)
			}
		}
		if tc.workload == "batch" && tc.trace && res.Metrics["analysis.kgap_s"].Value != 0 {
			t.Errorf("batch: analysis.kgap_s = %g, want 0 above the analysis cap", res.Metrics["analysis.kgap_s"].Value)
		}
	}
}

// TestReportsCurrentRunOverStaleRecord runs each deterministic metric's
// workload twice on one build, altering every recorded value in
// between, as a record written by other code would be. The second run
// must report the same values as the first, from its own jobs and
// warm-ups, and fail the determinism check naming what moved.
func TestReportsCurrentRunOverStaleRecord(t *testing.T) {
	dir := t.TempDir()
	gloved := buildGloved(t, dir)
	for _, tc := range []struct {
		trace bool
		names []string
	}{
		{false, []string{"pos_err_median_m", "time_err_median_min"}},
		{true, []string{"core.kernel_calls_per_op", "core.kernel_pruned_frac", "core.merges_per_op"}},
	} {
		cfg := tinyConfig("batch", tc.trace, gloved, t.TempDir())
		var log bytes.Buffer
		first, err := runBench(context.Background(), cfg, &log)
		if err != nil || !first.Correct {
			t.Fatalf("trace=%v: first run: correct=%v err=%v\n%s", tc.trace, first.Correct, err, log.String())
		}
		path := filepath.Join(cfg.work, "records", "batch-seed97-test.json")
		stale, err := loadRecord(path)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range stale.Values {
			stale.Values[k] = 2*v + 1
		}
		if err := stale.save(); err != nil {
			t.Fatal(err)
		}

		log.Reset()
		second, err := runBench(context.Background(), cfg, &log)
		if err != nil {
			t.Fatalf("trace=%v: second run: %v\n%s", tc.trace, err, log.String())
		}
		if second.Correct {
			t.Errorf("trace=%v: a run disagreeing with its record passed as correct", tc.trace)
		}
		for _, name := range tc.names {
			a, b := first.Metrics[name].Value, second.Metrics[name].Value
			if a != b || a <= 0 {
				t.Errorf("trace=%v: %s = %g after a stale record, %g before", tc.trace, name, b, a)
			}
		}
		if !strings.Contains(log.String(), "moved") {
			t.Errorf("trace=%v: no moved value named:\n%s", tc.trace, log.String())
		}
	}
}
