package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"pfg"
)

const (
	ingestTicks = 8  // ticks per push request
	ingestPool  = 64 // distinct pre-encoded bodies the ops cycle through
	ingestWarm  = 8  // pushes during set-up
)

// ingestSession is the ingest workload's server and inputs. Op j (warm-up
// ops first) posts body j mod ingestPool.
type ingestSession struct {
	srv    *server
	fill   [][]float64
	pool   [][][]float64 // the ticks of each body
	bodies [][]byte
	labels []int
	gen    uint64 // generation after set-up
}

func ingestSetup(seed int64, tr *tracer) (*ingestSession, error) {
	ticks, labels := streamTicks(sessionWindow+ingestPool*ingestTicks, seed)
	s := &ingestSession{fill: ticks[:sessionWindow], labels: labels}
	for j := range ingestPool {
		body := ticks[sessionWindow+j*ingestTicks:][:ingestTicks]
		s.pool = append(s.pool, body)
		s.bodies = append(s.bodies, pushBody(body))
	}
	srv, err := startServer(tr)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	if _, err := srv.fill(s.fill); err != nil {
		srv.close()
		return nil, err
	}
	for j := range ingestWarm {
		if s.gen, err = srv.push(s.bodies[j%ingestPool], ingestTicks); err != nil {
			srv.close()
			return nil, fmt.Errorf("warm-up push %d: %w", j, err)
		}
	}
	return s, nil
}

func (s *ingestSession) close() {
	if s.srv != nil {
		s.srv.close()
		s.srv = nil
	}
}

func runIngest(r *run) error {
	s, setup, err := setupTimes(func() (*ingestSession, error) { return ingestSetup(r.seed, r.tr) }, (*ingestSession).close)
	if err != nil {
		return err
	}
	defer s.close()
	before, err := s.srv.stats()
	if err != nil {
		return err
	}
	startGen, lastGen := s.gen, s.gen
	lat := make([]time.Duration, r.ops)
	var wire uint64
	ph := measure(func() {
		for i := range r.ops {
			tr := r.tracerFor(i)
			body := s.bodies[(ingestWarm+i)%ingestPool]
			t0 := time.Now()
			root := tr.begin("op", i, -1)
			if tr != nil {
				s.srv.timer.setOp(i, root)
			}
			gen, err := s.srv.push(body, ingestTicks)
			s.srv.timer.setOp(-1, -1)
			tr.end(root)
			lat[i] = time.Since(t0)
			wire += uint64(len(body))
			if err != nil {
				r.fail("op %d: %v", i, err)
				continue
			}
			lastGen = gen
		}
	})
	after, err := s.srv.stats()
	if err != nil {
		return err
	}
	final, err := s.srv.snapshot()
	if err != nil {
		return err
	}
	ops, nTraced := r.opMetrics(lat, ph, setup)
	s.close()

	w := statsDelta(before, after)
	w.Ticks = after.TicksPushed - before.TicksPushed
	w.Rebuilds = lastGen - startGen - w.Ticks
	w.WireBytes = wire
	w.ResultHash = hashBytes(final)
	r.counts = w
	r.e2e["wire_bytes_per_op"] = float64(wire) / float64(r.ops)

	// The final snapshot must be the bytes an in-process Streamer fed the
	// same ticks produces; with a tracer this is also the per-tick replay.
	body, rebuilds, view, err := ingestReplay(r, s)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, final) {
		r.fail("final snapshot differs from an in-process Streamer fed the same ticks")
	}
	if rebuilds != w.Rebuilds {
		r.problem("replay rebuilt %d times, the server %d", rebuilds, w.Rebuilds)
	}
	a, err := pfg.ARI(view.Cuts[fmt.Sprint(cutK)], s.labels)
	if err != nil {
		return err
	}
	r.ari = a

	if r.tr == nil {
		return nil
	}
	layers := r.tr.byName()
	mean := ops.mean
	r.layerTime("serve.push_ms", layers["serve.push"], nTraced, mean)
	r.wireLayer(mean, nTraced)
	r.layerTime("stream.push_us", layers["stream.push"], r.ops, mean)
	r.layerTime("stream.rebuild_ms", layers["stream.rebuild"], r.ops, mean)
	r.layers["stream.rebuilds"] = float64(layers["stream.rebuild"].count)
	r.serveCounts(w)
	return nil
}

// ingestReplay pushes the session's ticks into an in-process Streamer with
// the session's options, recording a span per timed push when tracing, and
// returns the k=8 snapshot body a GET would serve, the rebuild count over
// the timed ops, and the view.
func ingestReplay(r *run, s *ingestSession) ([]byte, uint64, *pfg.ResultJSON, error) {
	st, err := newStreamer()
	if err != nil {
		return nil, 0, nil, err
	}
	defer st.Close()
	for _, t := range s.fill {
		if err := st.Push(t); err != nil {
			return nil, 0, nil, err
		}
	}
	for j := range ingestWarm {
		for _, t := range s.pool[j%ingestPool] {
			if err := st.Push(t); err != nil {
				return nil, 0, nil, err
			}
		}
	}
	g0 := st.Generation()
	for i := range r.ops {
		root := r.tr.begin("replay", i, -1)
		for _, t := range s.pool[(ingestWarm+i)%ingestPool] {
			if err := tracedPush(r.tr, st, t, i, root); err != nil {
				return nil, 0, nil, err
			}
		}
		r.tr.end(root)
	}
	rebuilds := st.Generation() - g0 - uint64(r.ops*ingestTicks)
	res, gen, err := st.SnapshotGen(context.Background())
	if err != nil {
		return nil, 0, nil, err
	}
	view, err := res.JSON([]int{cutK}, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	body, err := snapshotBody(gen, view)
	return body, rebuilds, view, err
}
