// Command glovebench is the end-to-end benchmark of gloved. Each run
// boots fresh gloved child processes built from the same tree, drives
// them over loopback through pkg/client with one closed-loop client,
// verifies every release it downloads, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash glovebench/run.sh --workload batch --seed 1 --seconds 30 --trace 0
//
// Workloads: batch, windowed, follow. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the same workload with every other cycle of
// ops traced and reports the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("glovebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{size: defaultSizes(), setups: 5}
	fs.StringVar(&cfg.workload, "workload", "", "batch, windowed or follow")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; fixes every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&cfg.gloved, "gloved", "", "gloved binary built from this tree")
	fs.StringVar(&cfg.work, "work", "", "directory for daemon state and determinism records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	if cfg.gloved == "" || cfg.work == "" || cfg.seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "glovebench: need -gloved, -work, -seconds > 0 and -trace 0 or 1")
		return 2
	}
	self, err := os.Executable()
	if err == nil {
		cfg.build, err = buildID(cfg.gloved, self)
	}
	if err != nil {
		fmt.Fprintf(stderr, "glovebench: %v\n", err)
		return 1
	}
	res, err := runBench(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "glovebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "glovebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runBench runs one workload and assembles its result.
func runBench(ctx context.Context, cfg config, stderr io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, err
	}
	b, err := newBench(cfg, stderr)
	if err != nil {
		return result{}, err
	}
	if err := b.run(ctx); err != nil {
		return result{}, err
	}
	if len(b.ops) == 0 {
		return result{}, fmt.Errorf("no op completed in the timed phase")
	}
	var ms map[string]metric
	if cfg.trace {
		if err := b.inProcessLayers(ctx); err != nil {
			return result{}, fmt.Errorf("in-process layers: %w", err)
		}
		ms = b.layerMetrics()
	} else {
		ms = b.endToEnd()
	}
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %g; the run was too short to measure it", name, m.Value)
		}
	}
	for _, m := range b.rec.moved {
		fmt.Fprintf(stderr, "glovebench: determinism: %s\n", m)
	}
	if err := b.rec.save(); err != nil {
		return result{}, err
	}
	b.report()
	return result{
		Correct:   b.failed == 0 && len(b.rec.moved) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   ms,
	}, nil
}
