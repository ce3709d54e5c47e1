package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{
		{10000, 99.9, 10},
		{1000, 99, 10},
		{2250, 99, 22},
		{999, 95, 49}, // p99 of 999 leaves only 9 beyond
		{200, 95, 10},
		{52, 75, 13},
		{40, 75, 10},
		{39, 50, 19}, // p75 of 39 leaves 9
		{5, 50, 2},   // too few for any candidate: the median
	}
	for _, c := range cases {
		p, beyond := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond {
			t.Errorf("n=%d: got p%v with %d beyond, want p%v with %d", c.n, p, beyond, c.p, c.beyond)
		}
		if c.n > 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, p)
		}
	}
}

func TestSummariseReportsRankAndCount(t *testing.T) {
	var ds []time.Duration
	for i := 1000; i >= 1; i-- { // descending: summarise must sort
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	s := summarise(ds)
	if s.p50 != 500*time.Millisecond || s.tail != 990*time.Millisecond || s.tailP != 99 || s.beyond != 10 || s.n != 1000 {
		t.Fatalf("got %+v", s)
	}
	if ds[0] != time.Second {
		t.Fatal("summarise reordered its input")
	}
}

func TestSSEFrameParser(t *testing.T) {
	parts := []string{
		"event: snapshot\nid: 7\ndata: {\"a\":1}\n\n",
		": keep-alive comment\n\nevent: delta\r\nid: 8\r\ndata: line one\r\ndata:line two\r\n\r\n",
		"event: dropped\nid: 8\ndata: {\"dropped\":3}\n\n",
	}
	stream := strings.Join(parts, "")
	want := []frame{
		{event: "snapshot", id: 7, data: []byte(`{"a":1}`)},
		{event: "delta", id: 8, data: []byte("line one\nline two")},
		{event: "dropped", id: 8, data: []byte(`{"dropped":3}`)},
	}
	// Byte-at-a-time and half-frame reads must parse the same frames.
	readers := map[string]io.Reader{
		"whole":   strings.NewReader(stream),
		"onebyte": iotest.OneByteReader(strings.NewReader(stream)),
		"half":    iotest.HalfReader(strings.NewReader(stream)),
	}
	for name, rd := range readers {
		br := bufio.NewReaderSize(rd, 16) // smaller than a frame
		for i, w := range want {
			f, err := readFrame(br)
			if err != nil {
				t.Fatalf("%s frame %d: %v", name, i, err)
			}
			if f.event != w.event || f.id != w.id || string(f.data) != string(w.data) {
				t.Errorf("%s frame %d: got %q/%d/%q", name, i, f.event, f.id, f.data)
			}
			// A comment block counts toward the frame after it.
			if f.bytes != len(parts[i]) {
				t.Errorf("%s frame %d: %d bytes, want %d", name, i, f.bytes, len(parts[i]))
			}
		}
		if _, err := readFrame(br); !errors.Is(err, io.EOF) {
			t.Errorf("%s: after the last frame got %v, want EOF", name, err)
		}
	}
}

func TestSSEFrameParserRejectsTruncatedFrame(t *testing.T) {
	br := bufio.NewReader(strings.NewReader("event: delta\nid: 9\ndata: {\"x\""))
	if _, err := readFrame(br); err == nil || err == io.EOF {
		t.Fatalf("truncated frame: got %v, want a mid-frame error", err)
	}
	br = bufio.NewReader(strings.NewReader("event: delta\nid: nine\n\n"))
	if _, err := readFrame(br); err == nil {
		t.Fatal("non-numeric id accepted")
	}
}

func TestStealArithmetic(t *testing.T) {
	a, err := parseCPUStat("cpu  100 5 50 800 10 2 3 30 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil {
		t.Fatal(err)
	}
	if a.total() != 1000 {
		t.Fatalf("total %d, want 1000 (guest columns excluded)", a.total())
	}
	b := a
	b.user += 300
	b.idle += 500
	b.steal += 200
	if got := stealPct(a, b); math.Abs(got-20) > 1e-12 {
		t.Errorf("steal %v%%, want 20%%", got)
	}
	if got := stealPct(a, a); got != 0 {
		t.Errorf("no elapsed time: steal %v, want 0", got)
	}
	if _, err := parseCPUStat("cpu0 1 2 3 4 5 6 7 8\n"); err == nil {
		t.Error("per-cpu lines alone accepted")
	}
	if _, err := parseCPUStat("cpu 1 2 x 4 5 6 7 8\n"); err == nil {
		t.Error("non-numeric field accepted")
	}
}

func TestDeterminismComparator(t *testing.T) {
	a := workCounts{Ops: 2250, Ticks: 2250, Rebuilds: 9, SnapshotRuns: 2250, IncHits: 2200, WireBytes: 123456, ResultHash: "ab"}
	if d := diffCounts(a, a); d != nil {
		t.Fatalf("identical counts differ: %v", d)
	}
	b := a
	b.SnapshotRuns++
	b.WireBytes--
	d := diffCounts(a, b)
	if len(d) != 2 || !strings.HasPrefix(d[0], "snapshot_runs:") || !strings.HasPrefix(d[1], "wire_bytes:") {
		t.Fatalf("got %v", d)
	}

	dir := t.TempDir()
	key := recordKey("live", 1, 10, "build-a")
	if d, err := checkRecord(dir, key, a, true); err != nil || d != nil {
		t.Fatalf("first record: %v %v", d, err)
	}
	if d, err := checkRecord(dir, key, a, true); err != nil || d != nil {
		t.Fatalf("same counts again: %v %v", d, err)
	}
	if d, err := checkRecord(dir, key, b, true); err != nil || len(d) != 2 {
		t.Fatalf("changed counts: %v %v", d, err)
	}
}

// TestRecordOnlySameBuildAndClean pins the two rules that keep the record
// from flagging correct runs: runs of another build are never compared, and
// a run that failed ops never becomes the reference.
func TestRecordOnlySameBuildAndClean(t *testing.T) {
	a := workCounts{Ops: 10, Ticks: 10, SnapshotRuns: 10, WireBytes: 100}
	b := a
	b.WireBytes = 90

	dir := t.TempDir()
	if d, err := checkRecord(dir, recordKey("live", 1, 10, "build-a"), a, true); err != nil || d != nil {
		t.Fatalf("first record: %v %v", d, err)
	}
	if d, err := checkRecord(dir, recordKey("live", 1, 10, "build-b"), b, true); err != nil || d != nil {
		t.Fatalf("another build compared with build-a's record: %v %v", d, err)
	}

	key := recordKey("ingest", 1, 10, "build-a")
	if d, err := checkRecord(dir, key, b, false); err != nil || d != nil {
		t.Fatalf("failed run with no record: %v %v", d, err)
	}
	if d, err := checkRecord(dir, key, a, true); err != nil || d != nil {
		t.Fatalf("a failed run's counts became the reference: %v %v", d, err)
	}
	if d, err := checkRecord(dir, key, b, false); err != nil || len(d) != 1 {
		t.Fatalf("failed run not compared with the clean record: %v %v", d, err)
	}

	id, err := buildID()
	if err != nil || len(id) != 16 {
		t.Fatalf("buildID %q: %v", id, err)
	}
	if again, _ := buildID(); again != id {
		t.Fatalf("buildID not stable: %q then %q", id, again)
	}
}

// TestBenchmarkFileMatchesMetrics keeps BENCHMARK.json's metric lists and
// the program's in step.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name+" "+m.unit)
	}
	for _, m := range perLayer() {
		layers = append(layers, m.name+" "+m.unit)
	}
	var gotE2E, gotLayers []string
	for _, m := range spec.EndToEnd {
		gotE2E = append(gotE2E, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		gotLayers = append(gotLayers, m.Name+" "+m.Unit)
	}
	if !slices.Equal(e2e, gotE2E) {
		t.Errorf("end_to_end:\n file %v\n code %v", gotE2E, e2e)
	}
	if !slices.Equal(layers, gotLayers) {
		t.Errorf("per_layer:\n file %v\n code %v", gotLayers, layers)
	}
	for _, w := range spec.Work {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
