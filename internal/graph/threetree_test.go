package graph

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/ws"
)

// stackedThreeTree builds a random 3-tree on n ≥ 4 vertices: a K4, then
// each further vertex joined to a triangle chosen by pick. With planar set
// the chosen triangle is a face that the new vertex splits (an Apollonian
// network, the shape of a TMFG); otherwise any triangle created so far is
// eligible. Vertex ids are shuffled so they are unrelated to insertion
// order, and weight draws every edge weight.
func stackedThreeTree(n int, planar bool, pick func(k int) int, perm []int32, weight func() float64) []Edge {
	edges := make([]Edge, 0, 3*n-6)
	add := func(u, v int32) {
		edges = append(edges, Edge{U: perm[u], V: perm[v], W: weight()})
	}
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			add(u, v)
		}
	}
	tris := [][3]int32{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	for v := int32(4); int(v) < n; v++ {
		k := pick(len(tris))
		f := tris[k]
		add(f[0], v)
		add(f[1], v)
		add(f[2], v)
		if planar {
			tris[k] = tris[len(tris)-1]
			tris = tris[:len(tris)-1]
		}
		tris = append(tris, [3]int32{f[0], f[1], v}, [3]int32{f[0], f[2], v}, [3]int32{f[1], f[2], v})
	}
	return edges
}

// randomThreeTree is stackedThreeTree driven by rng. With ties set the
// weights come from {0, 0.25, …, 1.75}, so zero weights and equal-length
// paths are common.
func randomThreeTree(tb testing.TB, rng *rand.Rand, n int, planar, ties bool) *Graph {
	tb.Helper()
	perm := make([]int32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = int32(p)
	}
	weight := func() float64 {
		if ties {
			return float64(rng.Intn(8)) / 4
		}
		return 0.05 + rng.Float64()
	}
	g, err := FromEdges(n, stackedThreeTree(n, planar, rng.Intn, perm, weight))
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// bandGraph joins each vertex to the next three, a 3-tree with 3n−6 edges.
// With rewire set, edge {0,1} is replaced by {0, n−1}: the edge count is
// unchanged, but the graph is no longer a 3-tree.
func bandGraph(tb testing.TB, n int, rewire bool) *Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	edges := make([]Edge, 0, 3*n)
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			if j := i + d; j < n {
				edges = append(edges, Edge{U: int32(i), V: int32(j), W: 0.05 + rng.Float64()})
			}
		}
	}
	if rewire {
		edges[0].V = int32(n - 1)
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// octahedronStack is a maximal planar graph (3n−6 edges) that is not a
// 3-tree: an octahedron, whose vertices all have degree 4, with n−6
// vertices stacked into its faces. Peeling strips the stacked vertices and
// then stalls on the octahedron.
func octahedronStack(tb testing.TB, rng *rand.Rand, n int) *Graph {
	tb.Helper()
	// Poles 0 and 5 around the equator 1-2-3-4.
	var edges []Edge
	add := func(u, v int32) {
		edges = append(edges, Edge{U: u, V: v, W: 0.05 + rng.Float64()})
	}
	faces := [][3]int32{}
	for i := int32(0); i < 4; i++ {
		a, b := 1+i, 1+(i+1)%4
		add(a, b)
		add(0, a)
		add(5, a)
		faces = append(faces, [3]int32{0, a, b}, [3]int32{5, a, b})
	}
	for v := int32(6); int(v) < n; v++ {
		k := rng.Intn(len(faces))
		f := faces[k]
		add(f[0], v)
		add(f[1], v)
		add(f[2], v)
		faces[k] = faces[len(faces)-1]
		faces = append(faces[:len(faces)-1], [3]int32{f[0], f[1], v}, [3]int32{f[0], f[2], v}, [3]int32{f[1], f[2], v})
	}
	g, err := FromEdges(n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// dijkstraOracle is per-source single-source Dijkstra, row by row.
func dijkstraOracle(g *Graph) []float64 {
	n := g.N
	out := make([]float64, n*n)
	for src := 0; src < n; src++ {
		g.Dijkstra(int32(src), out[src*n:(src+1)*n])
	}
	return out
}

// closeTo reports whether got matches want to 1e-12 relative error, with
// infinities and zeros matched exactly.
func closeTo(got, want float64) bool {
	if math.IsInf(want, 1) || want == 0 {
		return got == want
	}
	return math.Abs(got-want) <= 1e-12*want
}

// checkAgainstOracle checks that a is exactly symmetric with a zero
// diagonal and agrees with per-source Dijkstra to 1e-12 relative error.
func checkAgainstOracle(tb testing.TB, g *Graph, a *APSP) {
	tb.Helper()
	n := g.N
	want := dijkstraOracle(g)
	for u := 0; u < n; u++ {
		if a.Dist[u*n+u] != 0 {
			tb.Fatalf("dist(%d,%d) = %v, want 0", u, u, a.Dist[u*n+u])
		}
		for v := 0; v < n; v++ {
			got := a.Dist[u*n+v]
			if math.Float64bits(got) != math.Float64bits(a.Dist[v*n+u]) {
				tb.Fatalf("dist(%d,%d) = %v but dist(%d,%d) = %v", u, v, got, v, u, a.Dist[v*n+u])
			}
			if !closeTo(got, want[u*n+v]) {
				tb.Fatalf("dist(%d,%d) = %v, Dijkstra says %v", u, v, got, want[u*n+v])
			}
		}
	}
}

// TestEliminationMatchesDijkstra is the oracle test of the 3-tree path:
// random stacked 3-trees, planar and not, with and without tied and zero
// weights, agree with per-source Dijkstra.
func TestEliminationMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{4, 5, 6, 7, 9, 16, 33, 100, 257, 600}
	for _, n := range sizes {
		for _, planar := range []bool{true, false} {
			for _, ties := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/planar=%v/ties=%v", n, planar, ties), func(t *testing.T) {
					g := randomThreeTree(t, rng, n, planar, ties)
					if !g.IsThreeTree() {
						t.Fatal("stacked 3-tree not recognised")
					}
					a, err := g.AllPairsShortestPathsCtx(context.Background(), exec.Default())
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, g, a)
				})
			}
		}
	}
}

// TestNonThreeTreeTakesDijkstra pins the fallback: graphs with exactly
// 3n−6 edges that are not 3-trees are rejected by the peel and produce the
// Dijkstra APSP bit for bit.
func TestNonThreeTreeTakesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A K4 on {0,1,2,3} with 4 stacked on {0,1,2} and 5 joined to {0,3,4},
	// which is not a triangle. Peeling 5 anyway would leave a K4 after 3.
	nonClique := mustGraph(t, 6, []Edge{
		{0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {1, 2, 1}, {1, 3, 2}, {2, 3, 3},
		{4, 0, 1}, {4, 1, 2}, {4, 2, 3}, {5, 0, 9}, {5, 3, 1}, {5, 4, 1},
	})
	cases := map[string]*Graph{
		"band-rewired":       bandGraph(t, 50, true),
		"octahedron":         octahedronStack(t, rng, 6),
		"octahedron+stack":   octahedronStack(t, rng, 80),
		"degree3-non-clique": nonClique,
	}
	ctx := context.Background()
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			if g.NumEdges() != 3*g.N-6 {
				t.Fatalf("%d edges, want 3n−6 = %d", g.NumEdges(), 3*g.N-6)
			}
			if g.IsThreeTree() {
				t.Fatal("non-3-tree recognised as a 3-tree")
			}
			a, err := g.AllPairsShortestPathsCtx(ctx, exec.Default())
			if err != nil {
				t.Fatal(err)
			}
			want := dijkstraOracle(g)
			for i := range want {
				if math.Float64bits(a.Dist[i]) != math.Float64bits(want[i]) {
					t.Fatalf("dist[%d] = %v, Dijkstra %v", i, a.Dist[i], want[i])
				}
			}
		})
	}
	if !bandGraph(t, 50, false).IsThreeTree() {
		t.Fatal("unrewired band graph is a 3-tree")
	}
}

// TestAPSPBadWeight checks that a negative or NaN weight is reported as
// ErrBadWeight by both strategies before any work, and that the
// error-less AllPairsShortestPaths panics with it.
func TestAPSPBadWeight(t *testing.T) {
	ctx := context.Background()
	for _, bad := range []float64{-1, math.Copysign(1e-300, -1), math.NaN()} {
		for _, rewire := range []bool{false, true} {
			g := bandGraph(t, 12, rewire)
			g.Weight[len(g.Weight)/2] = bad
			if _, err := g.AllPairsShortestPathsCtx(ctx, exec.Default()); !errors.Is(err, ErrBadWeight) {
				t.Fatalf("weight %v, rewire=%v: err = %v, want ErrBadWeight", bad, rewire, err)
			}
			if _, err := g.AllPairsShortestPathsDijkstraWS(ctx, exec.Default(), nil); !errors.Is(err, ErrBadWeight) {
				t.Fatalf("weight %v: Dijkstra err = %v, want ErrBadWeight", bad, err)
			}
			func() {
				defer func() {
					err, _ := recover().(error)
					if !errors.Is(err, ErrBadWeight) {
						t.Fatalf("weight %v: AllPairsShortestPaths recovered %v, want ErrBadWeight", bad, err)
					}
				}()
				g.AllPairsShortestPaths()
			}()
		}
	}
	// Zero (including negative zero) and +Inf are valid weights.
	g := bandGraph(t, 12, false)
	g.Weight[0], g.Weight[1] = math.Copysign(0, -1), math.Inf(1)
	if _, err := g.AllPairsShortestPathsCtx(ctx, exec.Default()); err != nil {
		t.Fatal(err)
	}
}

// TestEliminationCancelled checks that a cancelled context stops the
// elimination path with ctx.Err().
func TestEliminationCancelled(t *testing.T) {
	g := bandGraph(t, 600, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.AllPairsShortestPathsWS(ctx, exec.Default(), ws.New()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
