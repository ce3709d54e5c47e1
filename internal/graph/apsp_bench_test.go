package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// apspShapes are the APSP benchmark workloads, one per path of
// AllPairsShortestPathsWS, both planar with 3n−6 edges and positive
// dissimilarity-like weights: a random stacked 3-tree (the shape of a TMFG,
// solved by elimination) and a stacked octahedron (a maximal planar graph
// that is not a 3-tree, like a PMFG, solved by parallel Dijkstra). They
// mirror the APSP workload inside DBHT without importing the tmfg package
// (which depends on graph), and TestAPSPWorkersBitIdentical pins the same
// workloads the benchmark measures.
var apspShapes = []struct {
	name      string
	threeTree bool
	build     func(tb testing.TB, n int) *Graph
}{
	{"3tree", true, func(tb testing.TB, n int) *Graph {
		return randomThreeTree(tb, rand.New(rand.NewSource(int64(n))), n, true, false)
	}},
	{"non3tree", false, func(tb testing.TB, n int) *Graph {
		return octahedronStack(tb, rand.New(rand.NewSource(int64(n))), n)
	}},
}

// BenchmarkAPSP measures AllPairsShortestPaths on both of its paths at the
// DBHT sizes of interest.
func BenchmarkAPSP(b *testing.B) {
	for _, shape := range apspShapes {
		for _, n := range []int{512, 1024} {
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				g := shape.build(b, n)
				if g.IsThreeTree() != shape.threeTree {
					b.Fatalf("IsThreeTree = %v, want %v", !shape.threeTree, shape.threeTree)
				}
				// Warm-up so b.N iterations run on a warm workspace pool.
				g.AllPairsShortestPaths()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := g.AllPairsShortestPaths()
					if a == nil {
						b.Fatal("nil APSP")
					}
				}
			})
		}
	}
}
