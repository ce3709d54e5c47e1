package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"pfg"
	"pfg/internal/bubbletree"
	"pfg/internal/core"
	"pfg/internal/dbht"
	"pfg/internal/exec"
	"pfg/internal/tmfg"
	"pfg/internal/tsgen"
	"pfg/internal/ws"
)

// The batch workload is the paper's pipeline at a size whose n×n matrices
// (8 MB each) overflow a core's L2.
const (
	batchN       = 1024
	batchLen     = 1024
	batchClasses = 8
	batchNoise   = 2.0
	batchReplays = 6 // decomposed pipeline runs in the traced run
)

type batchInput struct {
	series [][]float64
	labels []int
	ref    string        // Workers:1 Newick every op must reproduce
	w1     time.Duration // the Workers:1 reference run
}

func batchSetup(seed int64) (*batchInput, error) {
	ds := tsgen.GenerateClassed("e2ebench", batchN, batchLen, batchClasses, batchNoise, seed)
	in := &batchInput{series: ds.Series, labels: ds.Labels}
	ctx := context.Background()
	if _, err := pfg.ClusterContext(ctx, in.series, pfg.Options{}); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	t0 := time.Now()
	ref, err := pfg.ClusterContext(ctx, in.series, pfg.Options{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("Workers:1 reference: %w", err)
	}
	in.w1 = time.Since(t0)
	if in.ref, err = ref.Newick(nil); err != nil {
		return nil, err
	}
	return in, nil
}

func runBatch(r *run) error {
	in, setup, err := setupTimes(func() (*batchInput, error) { return batchSetup(r.seed) }, func(*batchInput) {})
	if err != nil {
		return err
	}
	ctx := context.Background()
	lat := make([]time.Duration, r.ops)
	results := make([]*pfg.Result, r.ops)
	ph := measure(func() {
		for i := range r.ops {
			tr := r.tracerFor(i)
			t0 := time.Now()
			id := tr.begin("op", i, -1)
			res, err := pfg.ClusterContext(ctx, in.series, pfg.Options{})
			tr.end(id)
			lat[i] = time.Since(t0)
			if err != nil {
				r.fail("op %d: %v", i, err)
			}
			results[i] = res
		}
	})
	ops, _ := r.opMetrics(lat, ph, setup)

	// Output checks, after the clock stops.
	var wire, ariSum float64
	checked := 0
	for i, res := range results {
		if res == nil {
			continue
		}
		if nwk, err := res.Newick(nil); err != nil || nwk != in.ref {
			r.fail("op %d: dendrogram differs from the Workers:1 reference", i)
			continue
		}
		tr := r.tracerFor(i)
		id := tr.begin("pfg.json", i, -1)
		view, err := res.JSON([]int{cutK}, nil)
		var body []byte
		if err == nil {
			body, err = json.Marshal(view)
		}
		tr.end(id)
		if err != nil {
			r.fail("op %d: %v", i, err)
			continue
		}
		a, err := pfg.ARI(view.Cuts[fmt.Sprint(cutK)], in.labels)
		if err != nil {
			r.fail("op %d: %v", i, err)
			continue
		}
		wire += float64(len(body))
		ariSum += a
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("no op produced a checkable result")
	}
	r.e2e["wire_bytes_per_op"] = wire / float64(checked)
	r.ari = ariSum / float64(checked)
	r.counts.WireBytes = uint64(wire)
	r.counts.ResultHash = hashBytes([]byte(in.ref))

	if r.tr == nil {
		return nil
	}
	if err := batchReplay(r, in); err != nil {
		return err
	}
	layers := r.tr.byName()
	mean := ops.mean
	for _, name := range []string{"matrix.correlate", "tmfg.build", "bubbletree.direct", "graph.apsp", "dbht.build", "dbht.self"} {
		r.layerTime(name+"_ms", layers[name], batchReplays, mean)
	}
	r.layerTime("pfg.json_ms", layers["pfg.json"], layers["pfg.json"].count, mean)
	r.layerTime("core.cluster_w1_ms", layerStat{1, in.w1}, 1, mean)
	r.layers["pfg.body_bytes"] = r.e2e["wire_bytes_per_op"]
	r.layers["core.speedup"] = float64(in.w1) / float64(ops.p50)
	return nil
}

// batchReplay runs the pipeline ClusterContext runs, one layer call at a
// time, with a span around each call. dbht.BuildWS repeats the direction
// and APSP stages internally, so its self time is what remains after the
// standalone direct and apsp spans: assignment plus hierarchy.
func batchReplay(r *run, in *batchInput) error {
	ctx := context.Background()
	pool := exec.Default()
	tr := r.tr
	for i := range batchReplays {
		w := ws.Get()
		root := tr.begin("replay", i, -1)
		id := tr.begin("matrix.correlate", i, root)
		sim, dis, err := core.CorrelateWS(ctx, pool, w, in.series)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("tmfg.build", i, root)
		tm, err := tmfg.BuildWS(ctx, pool, w, sim, 10)
		tr.end(id)
		if err != nil {
			return err
		}
		t0 := time.Now()
		id = tr.begin("bubbletree.direct", i, root)
		_, err = bubbletree.DirectEdgesCtx(ctx, pool, tm.Tree, tm.Graph)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("graph.apsp", i, root)
		dg := tm.Graph.WithWeights(w, func(u, v int32) float64 { return dis.At(int(u), int(v)) })
		apsp, err := dg.AllPairsShortestPathsWS(ctx, pool, w)
		dg.ReleaseWeights(w)
		tr.end(id)
		if err != nil {
			return err
		}
		w.PutFloat64(apsp.Dist)
		standalone := time.Since(t0)
		t1 := time.Now()
		id = tr.begin("dbht.build", i, root)
		res, err := dbht.BuildWS(ctx, pool, w, tm.Graph, tm.Tree, dis, dbht.Options{})
		tr.end(id)
		build := time.Since(t1)
		if err != nil {
			return err
		}
		tr.add("dbht.self", i, root, t1, t1.Add(max(0, build-standalone)))
		tr.end(root)
		nwk, err := res.Dendrogram.Newick(nil)
		tm.Graph.Release(w)
		sim.Release(w)
		dis.Release(w)
		ws.Put(w)
		if err != nil || nwk != in.ref {
			r.problem("replay %d: decomposed pipeline differs from ClusterContext", i)
		}
	}
	return nil
}
