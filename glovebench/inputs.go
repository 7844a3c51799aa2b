package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/cdr"
	"repro/internal/synth"
)

// input is one generated upload: the CSV bytes gloved receives and the
// parsed table the release checks and in-process layer timings use.
type input struct {
	csv   []byte
	table *cdr.Table
	users int
	// windowUsers maps an absolute window index to the subscribers that
	// window holds, for windowed jobs; nil otherwise.
	windowUsers map[int]int
}

// regionUsers is the population of one generated region. An input of n
// users joins n/regionUsers regions, each a separate synth draw with its
// own cities and antennas around the same center, so no single random
// country layout dominates an input and inputs of one shape cost about
// the same to anonymize.
const regionUsers = 50

// generate draws one synthetic Ivory Coast-like CDR table of the given
// size through internal/synth. The seed fixes every record.
func generate(users, days int, seed int64) (*cdr.Table, error) {
	var out *cdr.Table
	for r := range (users + regionUsers - 1) / regionUsers {
		cfg := synth.CIV(min(regionUsers, users-r*regionUsers))
		cfg.Seed = seed*100 + int64(r)
		cfg.Days = days
		t, _, _, err := synth.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating %d users x %d days (seed %d): %w", users, days, seed, err)
		}
		prefix := fmt.Sprintf("r%d-", r)
		for i := range t.Records {
			t.Records[i].User = prefix + t.Records[i].User
		}
		if out == nil {
			out = t
		} else {
			out.Records = append(out.Records, t.Records...)
		}
	}
	return out, nil
}

// newInput encodes a table as the CSV upload. window > 0 also records
// the per-window subscriber counts a windowed job's releases must hide.
func newInput(t *cdr.Table, window time.Duration) (input, error) {
	var buf bytes.Buffer
	if err := cdr.WriteCSV(&buf, t); err != nil {
		return input{}, err
	}
	in := input{csv: buf.Bytes(), table: t, users: t.Users()}
	if window > 0 {
		wins, err := t.SplitByWindow(window)
		if err != nil {
			return input{}, err
		}
		in.windowUsers = make(map[int]int, len(wins))
		for _, w := range wins {
			in.windowUsers[w.Index] = w.Table.Users()
		}
	}
	return in, nil
}

// inputPool generates n distinct uploads of the same shape. Input i of
// seed s is generated from input seed s*1000+i, so pools of different
// seeds never share an input.
func inputPool(seed int64, n, users, days int, window time.Duration) ([]input, error) {
	pool := make([]input, n)
	for i := range pool {
		t, err := generate(users, days, seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		if pool[i], err = newInput(t, window); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// feedPool generates n follow feeds of the given shape, from the same
// synth seeds as inputPool, each long enough for a warm-up lap of warm
// windows.
func feedPool(seed int64, n, users, days, warm int) ([][]input, error) {
	feeds := make([][]input, n)
	for i := range feeds {
		t, err := generate(users, days, seed*1000+int64(i))
		if err != nil {
			return nil, err
		}
		if feeds[i], err = feedWindows(t, followWindow, jobK); err != nil {
			return nil, err
		}
		if len(feeds[i]) < warm+2 {
			return nil, fmt.Errorf("follow feed has %d windows, need more than %d", len(feeds[i]), warm+1)
		}
	}
	return feeds, nil
}

// feedWindows slices one generated table into consecutive windows of
// the given length: element w holds the records of minutes
// [w*window, (w+1)*window) in generation order, ready to be appended to
// a follow feed one window at a time. Every window must hold at least k
// subscribers, so no window of the feed is empty or unreleasable.
func feedWindows(t *cdr.Table, window time.Duration, k int) ([]input, error) {
	wmin := window.Minutes()
	n := int(math.Ceil(float64(t.SpanDays) * cdr.MinutesPerDay / wmin))
	parts := make([]*cdr.Table, n)
	for i := range parts {
		parts[i] = &cdr.Table{Center: t.Center, SpanDays: t.SpanDays}
	}
	for _, r := range t.Records {
		w := int(r.Minute / wmin)
		if w < 0 || w >= n {
			return nil, fmt.Errorf("record at minute %g outside the %d-day span", r.Minute, t.SpanDays)
		}
		parts[w].Records = append(parts[w].Records, r)
	}
	out := make([]input, n)
	for w, p := range parts {
		if u := p.Users(); u < k {
			return nil, fmt.Errorf("feed window %d holds %d users, need >= %d", w, u, k)
		}
		in, err := newInput(p, 0)
		if err != nil {
			return nil, err
		}
		out[w] = in
	}
	return out, nil
}
