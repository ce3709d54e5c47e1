// Command e2ebench is pfg's end-to-end benchmark: closed-loop workloads over
// the library and the real serve.Server handler stack on a loopback
// listener, with work that repeats exactly for a given seed. See README.md.
//
//	bash e2ebench/run.sh --workload batch|live|ingest --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result object; the lines before
// it are a human-readable report and the host record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"pfg"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one the timed phase uses.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced run's metrics and their units.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"wire_bytes_per_op", "B"},
	{"setup_s", "s"},
}

// timedLayers are the per-layer times; each is also reported as
// <name>.share, its time per op over the mean op time.
var timedLayers = []metricDef{
	{"serve.push_ms", "ms"},
	{"serve.wire_ms", "ms"},
	{"serve.deliver_ms", "ms"},
	{"stream.push_us", "us"},
	{"stream.rebuild_ms", "ms"},
	{"inc.hit_ms", "ms"},
	{"inc.full_ms", "ms"},
	{"matrix.correlate_ms", "ms"},
	{"tmfg.build_ms", "ms"},
	{"graph.apsp_ms", "ms"},
	{"bubbletree.direct_ms", "ms"},
	{"dbht.build_ms", "ms"},
	{"dbht.self_ms", "ms"},
	{"pfg.json_ms", "ms"},
	{"pfg.delta_ms", "ms"},
	{"core.cluster_w1_ms", "ms"},
}

// countLayers are the other per-layer metrics.
var countLayers = []metricDef{
	{"serve.snapshot_runs", "count"},
	{"serve.events_delta", "count"},
	{"serve.events_full", "count"},
	{"serve.events_dropped", "count"},
	{"serve.snapshot_rejected", "count"},
	{"stream.rebuilds", "count"},
	{"inc.hits", "count"},
	{"inc.fulls", "count"},
	{"inc.fulls_drift", "count"},
	{"inc.fulls_stale", "count"},
	{"inc.fulls_boundary", "count"},
	{"inc.hit_ratio", "ratio"},
	{"pfg.body_bytes", "B"},
	{"pfg.delta_bytes", "B"},
	{"core.speedup", "x"},
	{"dendro.cut_ari", "ratio"},
	{"go.alloc_mb_per_op", "MB"},
	{"go.gc_per_op", "count"},
	{"go.peak_rss_mb", "MB"},
	{"host.steal_pct", "%"},
	{"trace.op_p50_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// perLayer lists every per-layer metric name with its unit, in order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range timedLayers {
		out = append(out, l, metricDef{l.name + ".share", "ratio"})
	}
	return append(out, countLayers...)
}

// run is one benchmark invocation's state and findings.
type run struct {
	workload string
	seed     int64
	ops      int
	tr       *tracer // nil on untraced runs
	out      string

	failed   int
	problems []string // why ops failed or the run is invalid

	// ari is the k=8 cut's ARI against the generator's classes. It repeats
	// exactly for a seed but ranges over ±30% across seeds, so it is
	// reported rather than bounded.
	ari    float64
	e2e    map[string]float64
	layers map[string]float64
	counts workCounts
	report map[string]any
}

// traced reports whether op i records spans: half the ops of a traced run,
// so the untraced ops in between give the tracing overhead. The half is
// picked by a hash of i, not by parity, because rebuilds and staleness
// fulls recur with even periods and would all land on one side.
func (r *run) traced(i int) bool {
	if r.tr == nil {
		return false
	}
	x := uint64(i) * 0x9e3779b97f4a7c15 // Fibonacci hashing
	return x>>63 == 1
}

// tracerFor is the tracer op i records into (nil when it records nothing).
func (r *run) tracerFor(i int) *tracer {
	if r.traced(i) {
		return r.tr
	}
	return nil
}

// fail counts one failed op and notes why.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.problem(format, args...)
}

func (r *run) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// phase is the cost of the timed phase: wall and process CPU time, heap
// activity, resident-set peak, and the host's steal share over it.
type phase struct {
	wall, cpu time.Duration
	allocMB   float64
	gcs       uint32
	peakMB    float64
	steal     float64
}

// measure runs the timed phase. Set-up garbage is collected and returned to
// the OS first, and the resident-set high-water mark is reset, so the peak
// is the timed phase's own rather than whichever set-up GC pacing let grow
// furthest.
func measure(fn func()) phase {
	var m0, m1 runtime.MemStats
	debug.FreeOSMemory()
	resetPeakRSS()
	runtime.ReadMemStats(&m0)
	s0, c0, t0 := readCPUStat(), cpuTime(), time.Now()
	fn()
	wall, cpu, s1 := time.Since(t0), cpuTime()-c0, readCPUStat()
	runtime.ReadMemStats(&m1)
	return phase{
		wall:    wall,
		cpu:     cpu,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		gcs:     m1.NumGC - m0.NumGC,
		peakMB:  peakRSSMB(),
		steal:   stealPct(s0, s1),
	}
}

// setupTimes runs set-up setupReps times, releasing every set-up but the
// last, and returns the last state with each set-up's duration in seconds.
func setupTimes[S any](setup func() (S, error), release func(S)) (S, []float64, error) {
	var st S
	var secs []float64
	for rep := range setupReps {
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return st, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			release(s)
		} else {
			st = s
		}
	}
	return st, secs, nil
}

// opMetrics fills the end-to-end metrics every workload shares, and the
// traced run's overhead, from the per-op latencies of the timed phase. It
// returns the summary of all ops and the number of traced ones.
func (r *run) opMetrics(lat []time.Duration, ph phase, setup []float64) (latencies, int) {
	all := summarise(lat)
	r.e2e["op_p50_ms"] = ms(all.p50)
	r.e2e["op_tail_ms"] = ms(all.tail)
	r.e2e["ops_per_s"] = float64(len(lat)) / ph.wall.Seconds()
	r.e2e["cpu_ms_per_op"] = ms(ph.cpu) / float64(len(lat))
	r.e2e["setup_s"] = median(setup)
	r.report["tail"] = map[string]any{"percentile": all.tailP, "beyond": all.beyond, "samples": all.n}
	r.report["steal_pct"] = ph.steal
	r.report["peak_rss_mb"] = ph.peakMB
	r.layers["go.peak_rss_mb"] = ph.peakMB
	r.layers["go.alloc_mb_per_op"] = ph.allocMB / float64(len(lat))
	r.layers["go.gc_per_op"] = float64(ph.gcs) / float64(len(lat))
	r.layers["host.steal_pct"] = ph.steal
	if r.tr == nil {
		return all, 0
	}
	var on, off []time.Duration
	for i, d := range lat {
		if r.traced(i) {
			on = append(on, d)
		} else {
			off = append(off, d)
		}
	}
	tracedP50 := ms(summarise(on).p50)
	r.layers["trace.op_p50_ms"] = tracedP50
	r.layers["trace.overhead_ms"] = tracedP50 - ms(summarise(off).p50)
	return all, len(on)
}

// layerTime reports a timed layer: its mean per call in unit, and as
// .share its total time per op (over perOps ops) divided by meanOp.
func (r *run) layerTime(name string, l layerStat, perOps int, meanOp time.Duration) {
	unit := time.Millisecond
	if strings.HasSuffix(name, "_us") {
		unit = time.Microsecond
	}
	r.layers[name] = float64(l.mean()) / float64(unit)
	if perOps > 0 && meanOp > 0 {
		r.layers[name+".share"] = float64(l.total) / float64(perOps) / float64(meanOp)
	}
}

func hashBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

var workloads = map[string]func(*run) error{
	"batch":  runBatch,
	"live":   runLive,
	"ingest": runIngest,
}

// nominalRate is each workload's op rate on the reference host; a run does
// seconds × rate ops, a fixed amount of work, so it lasts about the
// requested time there and its work counts repeat exactly.
var nominalRate = map[string]float64{"batch": 3.5, "live": 150, "ingest": 150}

func main() {
	workload := flag.String("workload", "", "batch, live or ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "run length on the reference host; fixes the op count")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for traces and work-count records")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench -workload batch|live|ingest -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		ops:      max(1, int(float64(*seconds)*nominalRate[*workload]+0.5)),
		out:      *out,
		e2e:      map[string]float64{},
		layers:   map[string]float64{},
		report:   map[string]any{},
	}
	if *trace == 1 {
		r.tr = newTracer()
	}
	if err := execute(r, fn); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func execute(r *run, fn func(*run) error) error {
	if err := fn(r); err != nil {
		return fmt.Errorf("%s: %w", r.workload, err)
	}
	r.counts.Ops = r.ops
	build, err := buildID()
	if err != nil {
		return fmt.Errorf("build fingerprint: %w", err)
	}
	key := recordKey(r.workload, r.seed, r.ops, build)
	clean := r.failed == 0 && len(r.problems) == 0
	diffs, err := checkRecord(filepath.Join(r.out, "workcounts"), key, r.counts, clean)
	if err != nil {
		return fmt.Errorf("work-count record: %w", err)
	}
	for _, d := range diffs {
		r.problem("work differs from an earlier run with this seed: %s", d)
	}
	if r.tr != nil {
		dir := filepath.Join(r.out, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, key+".jsonl")
		if err := r.tr.write(path); err != nil {
			return err
		}
		r.report["trace_file"] = path
	}
	r.layers["dendro.cut_ari"] = r.ari
	r.report["ari"] = r.ari
	r.report["workload"] = r.workload
	r.report["seed"] = r.seed
	r.report["counts"] = r.counts
	r.report["host"] = hostRecord()
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "e2ebench:", p)
	}
	return printResult(r)
}

func printResult(r *run) error {
	metrics := map[string]metric{}
	if r.tr == nil {
		for _, m := range endToEnd {
			v, ok := r.e2e[m.name]
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", r.workload, m.name)
			}
			metrics[m.name] = metric{v, m.unit}
		}
	} else {
		// A layer the workload does not run reads 0.
		for _, m := range perLayer() {
			metrics[m.name] = metric{r.layers[m.name], m.unit}
		}
	}
	rep, err := json.Marshal(r.report)
	if err != nil {
		return err
	}
	fmt.Printf("report %s\n", rep)
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && len(r.problems) == 0, r.ops, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// hostRecord says what the run ran on, so a noisy run can be attributed.
func hostRecord() map[string]any {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu_model":  model,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"kernel_isa": pfg.KernelISA(),
		"go_version": runtime.Version(),
	}
}
