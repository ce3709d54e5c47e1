package dbht

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pfg/internal/bubbletree"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/matrix"
	"pfg/internal/tmfg"
	"pfg/internal/tsgen"
	"pfg/internal/ws"
)

// TestAPSPStrategyDendrogramSweep checks that the APSP strategy cannot be
// seen in DBHT's output. On TMFGs AllPairsShortestPathsWS solves by 3-tree
// elimination, whose distances may differ from parallel Dijkstra's in the
// last ulp; assignment and hierarchy run on each APSP must still give the
// same Newick string. The inputs are the end-to-end batch workload's
// generator (8 classes, noise 2.0) at three sizes and three seeds.
func TestAPSPStrategyDendrogramSweep(t *testing.T) {
	ctx := context.Background()
	pool := exec.Default()
	for _, n := range []int{256, 512, 1024} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				w := ws.New()
				ds := tsgen.GenerateClassed("apsp-sweep", n, 256, 8, 2.0, seed)
				sim, dis, err := matrix.PearsonDissimWS(ctx, pool, w, ds.Series)
				if err != nil {
					t.Fatal(err)
				}
				tm, err := tmfg.BuildWS(ctx, pool, w, sim, 10)
				if err != nil {
					t.Fatal(err)
				}
				dir, err := bubbletree.DirectEdgesCtx(ctx, pool, tm.Tree, tm.Graph)
				if err != nil {
					t.Fatal(err)
				}
				dg := tm.Graph.WithWeights(w, func(u, v int32) float64 { return dis.At(int(u), int(v)) })
				if !dg.IsThreeTree() {
					t.Fatal("TMFG not recognised as a 3-tree")
				}
				elim, err := dg.AllPairsShortestPathsWS(ctx, pool, w)
				if err != nil {
					t.Fatal(err)
				}
				dijk, err := dg.AllPairsShortestPathsDijkstraWS(ctx, pool, w)
				if err != nil {
					t.Fatal(err)
				}
				ulps := 0
				for i, d := range dijk.Dist {
					if e := elim.Dist[i]; e != d {
						if math.Abs(e-d) > 1e-12*d {
							t.Fatalf("dist[%d]: elimination %v, Dijkstra %v", i, e, d)
						}
						ulps++
					}
				}
				newick := func(apsp *graph.APSP) string {
					group, bubble, groups, err := assign(ctx, pool, w, tm.Graph, tm.Tree, dir, apsp, Options{})
					if err != nil {
						t.Fatal(err)
					}
					dnd, err := buildHierarchy(ctx, pool, w, n, group, bubble, groups, apsp)
					if err != nil {
						t.Fatal(err)
					}
					s, err := dnd.Newick(nil)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				if got, want := newick(elim), newick(dijk); got != want {
					t.Fatalf("dendrogram differs between APSP strategies (%d of %d distances differ by rounding)", ulps, len(dijk.Dist))
				}
				t.Logf("%d of %d distances differ by rounding; dendrograms equal", ulps, len(dijk.Dist))
			})
		}
	}
}
