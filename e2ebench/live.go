package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"pfg"
	"pfg/internal/serve"
)

const (
	liveWarm  = 32 // closed-loop ops during set-up
	frameWait = 30 * time.Second
)

// liveSession is the live workload's server, subscriber and inputs.
type liveSession struct {
	srv    *server
	ticks  [][]float64 // window fill, then one tick per op: warm-up first
	bodies [][]byte    // pre-encoded push body per post-fill tick
	labels []int

	cancel     context.CancelFunc // ends the subscription
	sse        io.Closer
	br         *bufio.Reader
	got        []frame // every frame read, from the initial snapshot on
	lastGen    uint64
	fillFrames int
}

// newStreamer is the in-process twin of the benchmark session.
func newStreamer() (*pfg.Streamer, error) {
	return pfg.NewStreamer(sessionWindow, pfg.StreamOptions{
		Cluster:     pfg.Options{Method: pfg.TMFGDBHT},
		Incremental: pfg.IncrementalOptions{Enabled: true},
	})
}

func liveSetup(seed int64, ops int, tr *tracer) (*liveSession, error) {
	l := &liveSession{}
	l.ticks, l.labels = streamTicks(sessionWindow+liveWarm+ops, seed)
	for _, t := range l.ticks[sessionWindow:] {
		l.bodies = append(l.bodies, pushBody([][]float64{t}))
	}
	srv, err := startServer(tr)
	if err != nil {
		return nil, err
	}
	l.srv = srv
	if l.lastGen, err = srv.fill(l.ticks[:sessionWindow]); err != nil {
		l.close()
		return nil, err
	}
	if err := l.subscribe(); err != nil {
		l.close()
		return nil, err
	}
	first, err := l.await(l.lastGen)
	if err != nil || first.event != "snapshot" {
		l.close()
		return nil, fmt.Errorf("initial snapshot frame: event %q, %v", first.event, err)
	}
	for j := range liveWarm {
		if _, err := l.op(j, -1, nil); err != nil {
			l.close()
			return nil, fmt.Errorf("warm-up op %d: %w", j, err)
		}
	}
	l.fillFrames = len(l.got)
	return l, nil
}

// subscribe opens the SSE stream on its own connection. The caller reads
// it between pushes, so no reader goroutine sits between the stream and the
// clock.
func (l *liveSession) subscribe() error {
	ctx, cancel := context.WithCancel(context.Background())
	url := fmt.Sprintf("%s/v1/sessions/%s/events?k=%d", l.srv.base, sessionID, cutK)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := (&http.Client{Transport: oneConn()}).Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	l.cancel, l.sse, l.br = cancel, resp.Body, bufio.NewReaderSize(resp.Body, 64<<10)
	return nil
}

// await reads frames until the one carrying generation gen. A stream that
// stalls for frameWait is cut, which fails this op and every later one.
func (l *liveSession) await(gen uint64) (frame, error) {
	stall := time.AfterFunc(frameWait, l.cancel)
	defer stall.Stop()
	for {
		f, err := readFrame(l.br)
		if err != nil {
			return frame{}, fmt.Errorf("waiting for generation %d: %w", gen, err)
		}
		l.got = append(l.got, f)
		if f.event == "dropped" {
			return f, fmt.Errorf("subscriber dropped events: %s", f.data)
		}
		if f.id >= gen && (f.event == "snapshot" || f.event == "delta") {
			return f, nil
		}
	}
}

// op pushes post-fill tick k and waits for its generation's frame. Timed
// op i records spans into tr.
func (l *liveSession) op(k, i int, tr *tracer) (time.Duration, error) {
	t0 := time.Now()
	root := tr.begin("op", i, -1)
	defer tr.end(root)
	if tr != nil {
		l.srv.timer.setOp(i, root)
		defer l.srv.timer.setOp(-1, -1)
	}
	gen, err := l.srv.push(l.bodies[k], 1)
	if err != nil {
		return time.Since(t0), err
	}
	posted := time.Now()
	f, err := l.await(gen)
	if err != nil {
		return time.Since(t0), err
	}
	tr.add("serve.deliver", i, root, posted, time.Now())
	if f.id != gen {
		return time.Since(t0), fmt.Errorf("frame for generation %d, want %d", f.id, gen)
	}
	l.lastGen = gen
	return time.Since(t0), nil
}

// close ends the subscription, then stops the server.
func (l *liveSession) close() {
	if l.cancel != nil {
		l.cancel()
		l.sse.Close()
		l.cancel = nil
	}
	if l.srv != nil {
		l.srv.close()
		l.srv = nil
	}
}

// checkedFrame is one delivered update after reconstruction.
type checkedFrame struct {
	gen     uint64
	event   string
	payload json.RawMessage // "result" of a snapshot frame, "delta" of a delta frame
	ari     float64
	bytes   int
	view    *pfg.ResultJSON // kept for the last frame only
}

// reconstruct replays the delivered frames in order: full snapshots re-base
// the view and deltas apply to it with ApplyDelta, each only onto the
// generation it was computed from.
func reconstruct(got []frame, labels []int) ([]checkedFrame, error) {
	var out []checkedFrame
	var view *pfg.ResultJSON
	var cur uint64
	for _, d := range got {
		c := checkedFrame{gen: d.id, event: d.event, bytes: d.bytes}
		switch d.event {
		case "snapshot":
			var s struct {
				Generation uint64          `json:"generation"`
				Result     json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(d.data, &s); err != nil {
				return nil, fmt.Errorf("snapshot frame %d: %w", d.id, err)
			}
			var v pfg.ResultJSON
			if err := json.Unmarshal(s.Result, &v); err != nil {
				return nil, fmt.Errorf("snapshot frame %d: %w", d.id, err)
			}
			view, c.payload = &v, s.Result
		case "delta":
			var s struct {
				FromGeneration uint64          `json:"from_generation"`
				Delta          json.RawMessage `json:"delta"`
			}
			if err := json.Unmarshal(d.data, &s); err != nil {
				return nil, fmt.Errorf("delta frame %d: %w", d.id, err)
			}
			if view == nil || s.FromGeneration != cur {
				return nil, fmt.Errorf("delta frame %d is based on generation %d, the view is at %d", d.id, s.FromGeneration, cur)
			}
			var delta pfg.ResultDeltaJSON
			if err := json.Unmarshal(s.Delta, &delta); err != nil {
				return nil, fmt.Errorf("delta frame %d: %w", d.id, err)
			}
			next, err := view.ApplyDelta(&delta)
			if err != nil {
				return nil, fmt.Errorf("delta frame %d: %w", d.id, err)
			}
			view, c.payload = next, s.Delta
		default:
			return nil, fmt.Errorf("unexpected %q frame at generation %d", d.event, d.id)
		}
		a, err := pfg.ARI(view.Cuts[fmt.Sprint(cutK)], labels)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", d.id, err)
		}
		c.ari, cur = a, d.id
		out = append(out, c)
	}
	if len(out) > 0 {
		out[len(out)-1].view = view
	}
	return out, nil
}

// snapshotBody is the GET /snapshot body the server sends for view.
func snapshotBody(gen uint64, view *pfg.ResultJSON) ([]byte, error) {
	b, err := json.Marshal(serve.SnapshotResponse{
		Session:    sessionID,
		Method:     pfg.TMFGDBHT.String(),
		Window:     sessionWindow,
		Generation: gen,
		Result:     view,
	})
	return append(b, '\n'), err
}

func runLive(r *run) error {
	l, setup, err := setupTimes(func() (*liveSession, error) { return liveSetup(r.seed, r.ops, r.tr) }, (*liveSession).close)
	if err != nil {
		return err
	}
	defer l.close()
	before, err := l.srv.stats()
	if err != nil {
		return err
	}
	startGen := l.lastGen
	lat := make([]time.Duration, r.ops)
	ph := measure(func() {
		for i := range r.ops {
			d, err := l.op(liveWarm+i, i, r.tracerFor(i))
			lat[i] = d
			if err != nil {
				r.fail("op %d: %v", i, err)
			}
		}
	})
	after, err := l.srv.stats()
	if err != nil {
		return err
	}
	final, err := l.srv.snapshot()
	if err != nil {
		return err
	}
	ops, nTraced := r.opMetrics(lat, ph, setup)
	l.close()

	// Every timed generation must reach the subscriber, in order, as a
	// frame that reconstructs, and the last reconstruction must be the body
	// a GET serves.
	frames, err := reconstruct(l.got, l.labels)
	if err != nil || len(frames) < l.fillFrames {
		r.fail("delta chain: %v", err)
		frames = nil
	}
	var timed []checkedFrame
	if frames != nil {
		timed = frames[l.fillFrames:]
	}
	if len(timed) != r.ops {
		r.fail("%d frames for %d timed ops", len(timed), r.ops)
	}
	var ariSum float64
	var wire uint64
	for _, c := range timed {
		ariSum += c.ari
		wire += uint64(c.bytes)
	}
	if len(timed) > 0 {
		last := timed[len(timed)-1]
		if body, err := snapshotBody(last.gen, last.view); err != nil || !bytes.Equal(body, final) {
			r.fail("the last reconstructed generation differs from GET /snapshot")
		}
	}

	w := statsDelta(before, after)
	w.Ticks = uint64(r.ops)
	w.Rebuilds = l.lastGen - startGen - uint64(r.ops)
	w.WireBytes = wire
	w.ResultHash = hashBytes(final)
	r.counts = w
	if w.SnapshotRuns != uint64(r.ops) {
		r.problem("%d snapshot runs for %d generations, want one each", w.SnapshotRuns, r.ops)
	}
	if w.EventsDropped != 0 || w.SnapshotRejected != 0 {
		r.problem("%d events dropped, %d snapshots rejected", w.EventsDropped, w.SnapshotRejected)
	}
	r.e2e["wire_bytes_per_op"] = float64(wire) / float64(r.ops)
	r.ari = ariSum / float64(max(1, len(timed)))

	if r.tr == nil || timed == nil {
		return nil
	}
	if err := liveReplay(r, l, timed); err != nil {
		return err
	}
	layers := r.tr.byName()
	mean := ops.mean
	r.layerTime("serve.push_ms", layers["serve.push"], nTraced, mean)
	r.layerTime("serve.deliver_ms", layers["serve.deliver"], nTraced, mean)
	r.wireLayer(mean, nTraced)
	for _, name := range []string{"stream.push", "stream.rebuild", "inc.hit", "inc.full", "pfg.json", "pfg.delta"} {
		unit := "_ms"
		if name == "stream.push" {
			unit = "_us"
		}
		r.layerTime(name+unit, layers[name], r.ops, mean)
	}
	r.serveCounts(w)
	return nil
}

// serveCounts reports the server's work counters over the timed phase.
func (r *run) serveCounts(w workCounts) {
	r.layers["serve.snapshot_runs"] = float64(w.SnapshotRuns)
	r.layers["serve.events_delta"] = float64(w.EventsDelta)
	r.layers["serve.events_full"] = float64(w.EventsFull)
	r.layers["serve.events_dropped"] = float64(w.EventsDropped)
	r.layers["serve.snapshot_rejected"] = float64(w.SnapshotRejected)
}

// wireLayer reports serve.wire_ms: per traced op, the push handler's time
// less the replayed Streamer.Push time of the same ticks, which leaves
// body decoding and handler work.
func (r *run) wireLayer(meanOp time.Duration, nTraced int) {
	handler := r.tr.perOp("serve.push")
	engine := r.tr.perOp("stream.push")
	for op, d := range r.tr.perOp("stream.rebuild") {
		engine[op] += d
	}
	var l layerStat
	for op, d := range handler {
		l.count++
		l.total += d - engine[op]
	}
	r.layerTime("serve.wire_ms", l, nTraced, meanOp)
}

// liveReplay feeds the same ticks through an in-process Streamer with the
// session's options, snapshotting every generation the server clustered,
// and checks that the bodies it builds are the bytes the subscriber got.
func liveReplay(r *run, l *liveSession, timed []checkedFrame) error {
	st, err := newStreamer()
	if err != nil {
		return err
	}
	defer st.Close()
	ctx := context.Background()
	for _, t := range l.ticks[:sessionWindow] {
		if err := st.Push(t); err != nil {
			return err
		}
	}
	res, _, err := st.SnapshotGen(ctx)
	if err != nil {
		return err
	}
	prev, err := res.JSON([]int{cutK}, nil)
	if err != nil {
		return err
	}
	for _, t := range l.ticks[sessionWindow : sessionWindow+liveWarm] {
		if err := st.Push(t); err != nil {
			return err
		}
		if res, _, err = st.SnapshotGen(ctx); err != nil {
			return err
		}
		if prev, err = res.JSON([]int{cutK}, nil); err != nil {
			return err
		}
	}
	before, _ := st.IncrementalStats()
	tr := r.tr
	var bodyBytes, deltaBytes int
	for i := range r.ops {
		root := tr.begin("replay", i, -1)
		if err := tracedPush(tr, st, l.ticks[sessionWindow+liveWarm+i], i, root); err != nil {
			return err
		}
		t0 := time.Now()
		res, gen, err := st.SnapshotGen(ctx)
		if err != nil {
			return err
		}
		name := "inc.full"
		if res.TicksSinceExact > 0 {
			name = "inc.hit"
		}
		tr.add(name, i, root, t0, time.Now())
		id := tr.begin("pfg.json", i, root)
		view, err := res.JSON([]int{cutK}, nil)
		if err != nil {
			return err
		}
		body, err := json.Marshal(view)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("pfg.delta", i, root)
		delta, err := prev.Delta(view)
		if err != nil {
			return err
		}
		db, err := json.Marshal(delta)
		tr.end(id)
		if err != nil {
			return err
		}
		tr.end(root)
		bodyBytes += len(body)
		deltaBytes += len(db)
		prev = view
		if i < len(timed) {
			c := timed[i]
			want := body
			if c.event == "delta" {
				want = db
			}
			if c.gen != gen || !bytes.Equal(c.payload, want) {
				r.fail("op %d: replayed %s of generation %d differs from the delivered frame", i, c.event, gen)
			}
		}
	}
	after, _ := st.IncrementalStats()
	r.layers["pfg.body_bytes"] = float64(bodyBytes) / float64(r.ops)
	r.layers["pfg.delta_bytes"] = float64(deltaBytes) / float64(r.ops)
	hits, fulls := after.Hits-before.Hits, after.Fulls-before.Fulls
	r.layers["inc.hits"] = float64(hits)
	r.layers["inc.fulls"] = float64(fulls)
	r.layers["inc.fulls_drift"] = float64(after.FullDrift - before.FullDrift)
	r.layers["inc.fulls_stale"] = float64(after.FullStale - before.FullStale)
	r.layers["inc.fulls_boundary"] = float64(after.FullInit + after.FullBoundary - before.FullInit - before.FullBoundary)
	if hits+fulls > 0 {
		r.layers["inc.hit_ratio"] = float64(hits) / float64(hits+fulls)
	}
	c := r.counts
	if hits != c.IncHits || after.FullDrift-before.FullDrift != c.IncFullsDrift ||
		after.FullStale-before.FullStale != c.IncFullsStale ||
		uint64(r.layers["inc.fulls_boundary"]) != c.IncFullsBoundary {
		r.problem("replayed incremental gate counts differ from the server's")
	}
	return nil
}

// tracedPush pushes one tick into st with a span named for what the push
// did: stream.rebuild when it landed on a rebuild boundary (the generation
// then advances twice), stream.push otherwise.
func tracedPush(tr *tracer, st *pfg.Streamer, tick []float64, op, parent int) error {
	g0 := st.Generation()
	t0 := time.Now()
	if err := st.Push(tick); err != nil {
		return err
	}
	t1 := time.Now()
	name := "stream.push"
	if st.Generation()-g0 > 1 {
		name = "stream.rebuild"
	}
	tr.add(name, op, parent, t0, t1)
	return nil
}
