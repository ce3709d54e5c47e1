package graph

import (
	"context"
	"errors"
	"fmt"

	"pfg/internal/exec"
	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// distHeap wraps the 4-ary kernel.Heap4 with workspace-backed storage: one
// heap serves every source handled by a worker. The 4-ary layout halves the
// sift depth of the old binary heap and keeps each level's children on one
// or two cache lines — the misses that dominated the APSP inner loop.
type distHeap struct {
	kernel.Heap4
}

// acquire sizes the heap for n vertices from the workspace. Call Reset
// before each subsequent source and release when the worker is done.
func (h *distHeap) acquire(w *ws.Workspace, n int) {
	h.Init(w.Int32(n), w.Float64(n), w.Int32(n))
}

// release returns the heap's arrays to the workspace.
func (h *distHeap) release(w *ws.Workspace) {
	verts, dist, pos := h.Storage()
	w.PutInt32(verts)
	w.PutFloat64(dist)
	w.PutInt32(pos)
}

// dijkstraInto runs Dijkstra from src using the caller's heap (already
// acquired and reset), writing distances into out. No settled set is
// needed: with non-negative weights a popped vertex can never be improved,
// so DecreaseKey's d ≥ dist[u] early-out filters stale relaxations. That
// argument requires non-negative finite weights, so the pop counter turns a
// violation (negative or NaN weights re-inserting popped vertices) into a
// panic instead of an unbounded loop.
func (g *Graph) dijkstraInto(h *distHeap, src int32, out []float64) {
	h.DecreaseKey(src, 0)
	pops := 0
	// Tentative distances are computed for a whole adjacency chunk before
	// any heap update: the batch keeps the weight loads and adds pipelined
	// instead of interleaving them with the heap's dependent branches.
	var cand [8]float64
	for h.Len() > 0 {
		v := h.PopMin()
		if pops++; pops > g.N {
			panic("graph: Dijkstra requires non-negative finite edge weights")
		}
		dv := h.DistOf(v)
		lo, hi := g.Off[v], g.Off[v+1]
		adj := g.Adj[lo:hi]
		wts := g.Weight[lo:hi]
		for base := 0; base < len(adj); base += len(cand) {
			m := min(len(cand), len(adj)-base)
			for k := 0; k < m; k++ {
				cand[k] = dv + wts[base+k]
			}
			for k := 0; k < m; k++ {
				h.DecreaseKey(adj[base+k], cand[k])
			}
		}
	}
	copy(out, h.Dists())
}

// Dijkstra computes single-source shortest path distances from src using the
// graph's edge weights, which must be non-negative. Unreachable vertices get
// +Inf. The out slice, if non-nil and of length g.N, is reused.
func (g *Graph) Dijkstra(src int32, out []float64) []float64 {
	if out == nil || len(out) != g.N {
		out = make([]float64, g.N)
	}
	w := ws.Get()
	defer ws.Put(w)
	var h distHeap
	h.acquire(w, g.N)
	g.dijkstraInto(&h, src, out)
	h.release(w)
	return out
}

// BFSDistances computes hop-count distances from src (-1 for unreachable).
// The result is freshly allocated; hot paths use BFSDistancesWS.
func (g *Graph) BFSDistances(src int32) []int32 {
	w := ws.Get()
	defer ws.Put(w)
	out := make([]int32, g.N)
	g.bfsDistancesInto(w, src, out)
	return out
}

// BFSDistancesWS is BFSDistances with both the queue scratch and the result
// drawn from the workspace; release the returned slice with w.PutInt32 when
// done.
func (g *Graph) BFSDistancesWS(w *ws.Workspace, src int32) []int32 {
	out := w.Int32(g.N)
	g.bfsDistancesInto(w, src, out)
	return out
}

func (g *Graph) bfsDistancesInto(w *ws.Workspace, src int32, dist []int32) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := w.Int32(g.N)
	defer w.PutInt32(queue)
	queue[0] = src
	qh, qt := 0, 1
	for qh < qt {
		v := queue[qh]
		qh++
		adj, _ := g.Neighbors(v)
		for _, u := range adj {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue[qt] = u
				qt++
			}
		}
	}
}

// APSP is an n×n row-major all-pairs shortest-path distance matrix.
// AllPairsShortestPathsWS fills it by 3-tree elimination when the graph is
// a 3-tree (every TMFG) and by parallel per-source Dijkstra — the paper's
// strategy for DBHT on Θ(n)-edge filtered graphs — otherwise.
type APSP struct {
	N    int
	Dist []float64
}

// At returns the shortest-path distance from u to v.
func (a *APSP) At(u, v int32) float64 { return a.Dist[int(u)*a.N+int(v)] }

// ErrBadWeight reports a negative or NaN edge weight, for which neither
// APSP strategy is defined. Test for it with errors.Is.
var ErrBadWeight = errors.New("graph: edge weight is negative or NaN")

// checkWeights returns ErrBadWeight, naming the first offending edge, unless
// every weight is non-negative and not NaN (+Inf is allowed).
func (g *Graph) checkWeights() error {
	for v := int32(0); int(v) < g.N; v++ {
		for k := g.Off[v]; k < g.Off[v+1]; k++ {
			if x := g.Weight[k]; !(x >= 0) {
				return fmt.Errorf("%w: edge (%d,%d) has weight %v", ErrBadWeight, v, g.Adj[k], x)
			}
		}
	}
	return nil
}

// AllPairsShortestPaths computes all-pairs shortest paths on the shared
// default pool, without cancellation. It panics with an ErrBadWeight error
// if a weight is negative or NaN; AllPairsShortestPathsCtx returns it.
func (g *Graph) AllPairsShortestPaths() *APSP {
	a, err := g.AllPairsShortestPathsCtx(context.Background(), exec.Default())
	if err != nil {
		panic(err)
	}
	return a
}

// AllPairsShortestPathsCtx computes all-pairs shortest paths on the given
// pool with cooperative cancellation; see AllPairsShortestPathsWS.
func (g *Graph) AllPairsShortestPathsCtx(ctx context.Context, pool *exec.Pool) (*APSP, error) {
	w := ws.Get()
	defer ws.Put(w)
	return g.AllPairsShortestPathsWS(ctx, pool, w)
}

// AllPairsShortestPathsWS computes exact all-pairs shortest paths with
// explicit workspace scratch. Weights must be non-negative and not NaN;
// otherwise it returns an ErrBadWeight error before any work.
//
// A 3-tree (exactly 3n−6 edges, n ≥ 4, and peelable down to a K4 by
// removing degree-3 vertices whose neighbours form a triangle) — which every
// TMFG is — is solved by elimination along that peel order in two O(n²)
// passes (see eliminationAPSP). Any other graph, a PMFG for instance, runs
// AllPairsShortestPathsDijkstraWS. Both strategies produce bits that do not
// depend on the pool's worker count. They agree to rounding: the two sum a
// path's edges in different orders, so a distance may differ in the last
// ulp between them.
//
// The result's Dist array is drawn from the workspace: callers that discard
// the APSP before releasing the workspace may return it with
// w.PutFloat64(a.Dist).
func (g *Graph) AllPairsShortestPathsWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace) (*APSP, error) {
	if err := g.checkWeights(); err != nil {
		return nil, err
	}
	var t threeTree
	if g.peelThreeTree(w, &t) {
		defer t.release(w)
		return g.eliminationAPSP(ctx, pool, w, &t)
	}
	return g.dijkstraAPSP(ctx, pool, w)
}

// AllPairsShortestPathsDijkstraWS runs Dijkstra from every source in
// parallel on any graph, 3-tree or not: the strategy the paper uses, kept
// callable for the APSP ablation and as the oracle the elimination path is
// tested against. Each source's run is sequential, so the partition of
// sources across workers cannot change any bit. Weights are checked as in
// AllPairsShortestPathsWS.
func (g *Graph) AllPairsShortestPathsDijkstraWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace) (*APSP, error) {
	if err := g.checkWeights(); err != nil {
		return nil, err
	}
	return g.dijkstraAPSP(ctx, pool, w)
}

// dijkstraAPSP is the parallel Dijkstra APSP on pre-checked weights. Each
// worker block acquires one heap and reuses it across its sources, so a run
// over a warm workspace performs no per-source allocation.
func (g *Graph) dijkstraAPSP(ctx context.Context, pool *exec.Pool, w *ws.Workspace) (*APSP, error) {
	n := g.N
	a := &APSP{N: n, Dist: w.Float64(n * n)}
	err := pool.ForBlocked(ctx, n, 1, func(lo, hi int) {
		var h distHeap
		h.acquire(w, n)
		for src := lo; src < hi; src++ {
			if src > lo {
				h.Reset()
			}
			g.dijkstraInto(&h, int32(src), a.Dist[src*n:(src+1)*n])
		}
		h.release(w)
	})
	if err != nil {
		w.PutFloat64(a.Dist)
		return nil, err
	}
	return a, nil
}
