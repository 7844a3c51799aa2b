package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/cdr"
	"repro/internal/core"
)

// verifyRelease checks one downloaded release: it parses as the
// generalized CSV, every group hides at least k subscribers, and the
// group sizes add up to the subscribers of the input, so every input
// user appears in exactly one group (the format carries crowd sizes,
// not identities). It returns the release's SHA-256.
func verifyRelease(data []byte, k, users int) (string, error) {
	ds, err := cdr.ReadAnonymizedCSV(bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	if err := core.ValidateKAnonymity(ds, k); err != nil {
		return "", err
	}
	hidden := 0
	for _, f := range ds.Fingerprints {
		hidden += f.Count
	}
	if hidden != users {
		return "", fmt.Errorf("release hides %d subscribers, input has %d", hidden, users)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// buildID names the binaries under test by the SHA-256 of their
// contents, shortened to 16 hex digits.
func buildID(paths ...string) (string, error) {
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// record holds the values that must repeat exactly for one workload,
// seed and build: release digests keyed by input and window, utility
// medians and per-layer counts. It is kept in a file under the work
// directory, so later runs of the same seed and build are checked
// against earlier ones as well as against repeats within a run. It only
// decides the verdict; every reported value is this run's own.
type record struct {
	Digests map[string]string  `json:"digests"`
	Values  map[string]float64 `json:"values"`

	path  string
	moved []string
}

func loadRecord(path string) (*record, error) {
	r := &record{Digests: map[string]string{}, Values: map[string]float64{}, path: path}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if r.Digests == nil {
		r.Digests = map[string]string{}
	}
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	return r, nil
}

// digest records a release digest and reports whether it agrees with
// every earlier digest of the same key.
func (r *record) digest(key, sum string) bool {
	old, ok := r.Digests[key]
	if !ok {
		r.Digests[key] = sum
		return true
	}
	if old != sum {
		r.moved = append(r.moved, fmt.Sprintf("release digest %s moved: %.12s -> %.12s", key, old, sum))
		return false
	}
	return true
}

// value records a deterministic value and reports whether it agrees
// with every earlier value of the same key, bit for bit.
func (r *record) value(key string, v float64) bool {
	old, ok := r.Values[key]
	if !ok {
		r.Values[key] = v
		return true
	}
	if math.Float64bits(old) != math.Float64bits(v) {
		r.moved = append(r.moved, fmt.Sprintf("%s moved: %s -> %s", key,
			strconv.FormatFloat(old, 'g', -1, 64), strconv.FormatFloat(v, 'g', -1, 64)))
		return false
	}
	return true
}

// save writes the record back, keys sorted by the JSON encoder.
func (r *record) save() error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(r.path), 0o755); err != nil {
		return err
	}
	tmp := r.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, r.path)
}
