package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
)

// workCounts is the work one run did. For a given workload, seed and op
// count every field must repeat exactly, whatever the timing: the loops are
// closed, so timing cannot decide which generations get clustered.
type workCounts struct {
	Ops              int    `json:"ops"`
	Ticks            uint64 `json:"ticks"`
	Rebuilds         uint64 `json:"rebuilds"`
	SnapshotRuns     uint64 `json:"snapshot_runs"`
	IncHits          uint64 `json:"inc_hits"`
	IncFullsDrift    uint64 `json:"inc_fulls_drift"`
	IncFullsStale    uint64 `json:"inc_fulls_stale"`
	IncFullsBoundary uint64 `json:"inc_fulls_boundary"`
	IncFullsRepair   uint64 `json:"inc_fulls_repair"`
	EventsDelta      uint64 `json:"events_delta"`
	EventsFull       uint64 `json:"events_full"`
	EventsDropped    uint64 `json:"events_dropped"`
	SnapshotRejected uint64 `json:"snapshot_rejected"`
	WireBytes        uint64 `json:"wire_bytes"`
	// ResultHash fingerprints the run's final output bytes.
	ResultHash string `json:"result_hash"`
}

// diffCounts names every field on which two runs disagree.
func diffCounts(a, b workCounts) []string {
	ma, mb := asMap(a), asMap(b)
	var diffs []string
	for k, va := range ma {
		if vb := mb[k]; va != vb {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", k, va, vb))
		}
	}
	slices.Sort(diffs)
	return diffs
}

func asMap(c workCounts) map[string]any {
	b, _ := json.Marshal(c)
	m := map[string]any{}
	_ = json.Unmarshal(b, &m) // round trip of a plain struct cannot fail
	return m
}

// buildID fingerprints the running binary, so only runs of the same build
// are compared: changed code may legitimately change its work counts.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// recordKey names the work-count record of one workload, seed, op count and
// build.
func recordKey(workload string, seed int64, ops int, build string) string {
	return fmt.Sprintf("%s-seed%d-ops%d-%s", workload, seed, ops, build)
}

// checkRecord compares c with the counts recorded by an earlier run under
// the same key and returns the disagreements. When there is no record yet
// and clean is set, it records c; a run that failed ops or found problems
// never becomes the reference.
func checkRecord(dir, key string, c workCounts, clean bool) ([]string, error) {
	path := filepath.Join(dir, key+".json")
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		var prev workCounts
		if err := json.Unmarshal(b, &prev); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		return diffCounts(prev, c), nil
	case errors.Is(err, fs.ErrNotExist):
		if !clean {
			return nil, nil
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		b, _ := json.MarshalIndent(c, "", "  ")
		return nil, os.WriteFile(path, append(b, '\n'), 0o644)
	default:
		return nil, err
	}
}
