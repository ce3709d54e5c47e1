package graph

import (
	"context"

	"pfg/internal/exec"
	"pfg/internal/ws"
)

// threeTree is a 3-tree's perfect elimination order in insertion-rank
// space: ranks 0–3 are the base K4 (ascending vertex id) and every rank
// r ≥ 4 was stacked on the triangle of its three parents, all of lower
// rank. Every edge is either a K4 edge or the parent edge of its
// higher-ranked endpoint, so par/pw hold each edge exactly once and the
// backward pass can update edge weights in place.
type threeTree struct {
	rank []int32   // rank[v]: insertion rank of vertex v
	par  []int32   // par[3r:3r+3]: parent ranks of rank r ≥ 4
	pw   []float64 // pw[3r:3r+3]: weights of those parent edges
	k4   [16]float64
}

func (t *threeTree) release(w *ws.Workspace) {
	w.PutInt32(t.rank)
	w.PutInt32(t.par)
	w.PutFloat64(t.pw)
}

// IsThreeTree reports whether g is a 3-tree, the graphs whose all-pairs
// shortest paths AllPairsShortestPathsWS computes by elimination. Every
// TMFG is one.
func (g *Graph) IsThreeTree() bool {
	w := ws.Get()
	defer ws.Put(w)
	var t threeTree
	if !g.peelThreeTree(w, &t) {
		return false
	}
	t.release(w)
	return true
}

// peelThreeTree recognises a 3-tree by repeatedly removing a vertex of
// degree 3 whose three remaining neighbours are mutually adjacent, until
// only a K4 is left. Candidates are taken from a FIFO seeded in ascending
// vertex id, so the peel order — and with it every distance bit of the
// elimination APSP — is a pure function of the graph. The work is
// O(n + Σdeg) with binary-searched adjacency checks on the sorted CSR. On
// success t holds the order and its scratch, which the caller releases; on
// failure everything is already returned to w.
func (g *Graph) peelThreeTree(w *ws.Workspace, t *threeTree) bool {
	n := g.N
	if n < 4 || len(g.Adj) != 2*(3*n-6) {
		return false
	}
	// deg holds each vertex's remaining degree, −1 once peeled; afterwards
	// it becomes the rank array.
	deg := w.Int32(n)
	queue := w.Int32(n)
	*t = threeTree{rank: deg, par: w.Int32(3 * n), pw: w.Float64(3 * n)}
	fail := func() bool {
		w.PutInt32(queue)
		t.release(w)
		return false
	}
	qt := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Off[v+1] - g.Off[v]
		if deg[v] == 3 {
			queue[qt] = int32(v)
			qt++
		}
	}
	// The k-th peeled vertex gets rank n−1−k; its parents are recorded as
	// vertex ids until every rank is known.
	for k := 0; k < n-4; k++ {
		if k >= qt {
			return fail()
		}
		// v was queued at remaining degree 3; if a later peel took one of
		// its neighbours, the count j below comes up short.
		v := queue[k]
		base := 3 * (n - 1 - k)
		j := 0
		for s := g.Off[v]; s < g.Off[v+1]; s++ {
			u := g.Adj[s]
			if deg[u] < 0 {
				continue
			}
			if j == 3 || u == v {
				return fail()
			}
			t.par[base+j], t.pw[base+j] = u, g.Weight[s]
			j++
		}
		a, b, c := t.par[base], t.par[base+1], t.par[base+2]
		if j != 3 || !g.HasEdge(a, b) || !g.HasEdge(a, c) || !g.HasEdge(b, c) {
			return fail()
		}
		deg[v] = -1
		for _, u := range t.par[base : base+3] {
			if deg[u]--; deg[u] == 3 {
				queue[qt] = u
				qt++
			}
		}
	}
	var k4 [4]int32
	m := 0
	for v := int32(0); int(v) < n; v++ {
		if deg[v] >= 0 {
			if deg[v] != 3 {
				return fail()
			}
			k4[m] = v
			m++
		}
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			x, ok := g.EdgeWeight(k4[i], k4[j])
			if !ok {
				return fail()
			}
			t.k4[4*i+j] = x
		}
	}
	for i, v := range k4 {
		deg[v] = int32(i)
	}
	for k := 0; k < n-4; k++ {
		deg[queue[k]] = int32(n - 1 - k)
	}
	w.PutInt32(queue)
	for i := 12; i < 3*n; i++ {
		t.par[i] = t.rank[t.par[i]]
	}
	return true
}

// relax lowers the stored weight of edge {a, b} to d if d is smaller.
func (t *threeTree) relax(a, b int32, d float64) {
	if a < b {
		a, b = b, a
	}
	if a < 4 {
		if d < t.k4[4*a+b] {
			t.k4[4*a+b], t.k4[4*b+a] = d, d
		}
		return
	}
	s := 3 * a
	for i := s; i < s+3; i++ {
		if t.par[i] == b {
			if d < t.pw[i] {
				t.pw[i] = d
			}
			return
		}
	}
}

// fillBlock is the forward fill's row block: rows are computed a block at a
// time and mirrored into the columns left of the block once it is done, a
// tile transpose instead of one strided write per entry. The context is
// checked between blocks.
const fillBlock = 64

// fillRow computes row r of the rank-space distance matrix rd (row-major,
// stride n) for the columns left of r, and mirrors it into column r within
// the current block [r0, r). Rows below r0 are complete up to column r0;
// rows in [r0, r) are complete up to column r.
func (t *threeTree) fillRow(rd []float64, n, r0, r int) {
	p, x := t.par[3*r:3*r+3], t.pw[3*r:3*r+3]
	w0, w1, w2 := x[0], x[1], x[2]
	// Columns left of the block: three contiguous parent rows.
	row := rd[r*n : r*n+r0]
	p0 := rd[int(p[0])*n:][:len(row)]
	p1 := rd[int(p[1])*n:][:len(row)]
	p2 := rd[int(p[2])*n:][:len(row)]
	for c := range row {
		d := w0 + p0[c]
		if e := w1 + p1[c]; e < d {
			d = e
		}
		if e := w2 + p2[c]; e < d {
			d = e
		}
		row[c] = d
	}
	// Columns inside the block: a parent below r0 is read down its column,
	// whose entries in rows [r0, r) are already final.
	at := func(q int32, c int) float64 {
		if int(q) >= r0 {
			return rd[int(q)*n+c]
		}
		return rd[c*n+int(q)]
	}
	for c := r0; c < r; c++ {
		d := w0 + at(p[0], c)
		if e := w1 + at(p[1], c); e < d {
			d = e
		}
		if e := w2 + at(p[2], c); e < d {
			d = e
		}
		rd[r*n+c] = d
		rd[c*n+r] = d
	}
	rd[r*n+r] = 0
}

// eliminationAPSP computes exact all-pairs shortest paths on a 3-tree by
// elimination along its perfect elimination order (the chordal-graph APSP
// of Planken, de Weerdt & van der Krogt, JAIR 2012):
//
//  1. backward pass in peel order: each vertex v relaxes the edge between
//     every pair of its parents through v, so an edge's weight becomes the
//     shortest path through vertices peeled before either endpoint;
//  2. Floyd–Warshall on the base K4, making its six distances exact;
//  3. forward fill in insertion-rank space: row r is the elementwise
//     minimum over r's three parents p of w′(r,p) + row p over columns < r,
//     read from three contiguous rows and mirrored into column r (a block
//     of rows at a time, see fillBlock);
//  4. a gather from rank space to vertex order, parallel over row blocks.
//
// Steps 1–3 are sequential and step 4 only copies, so the result bits are
// independent of the pool's worker count. The rank-space matrix is the one
// extra n×n buffer; it and all other scratch come from w.
func (g *Graph) eliminationAPSP(ctx context.Context, pool *exec.Pool, w *ws.Workspace, t *threeTree) (*APSP, error) {
	n := g.N
	for r := n - 1; r >= 4; r-- {
		p, x := t.par[3*r:3*r+3], t.pw[3*r:3*r+3]
		t.relax(p[0], p[1], x[0]+x[1])
		t.relax(p[0], p[2], x[0]+x[2])
		t.relax(p[1], p[2], x[1]+x[2])
	}
	k4 := &t.k4
	for k := 0; k < 4; k++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if d := k4[4*i+k] + k4[4*k+j]; d < k4[4*i+j] {
					k4[4*i+j] = d
				}
			}
		}
	}

	rd := w.Float64(n * n)
	defer w.PutFloat64(rd)
	for i := 0; i < 4; i++ {
		copy(rd[i*n:i*n+4], k4[4*i:4*i+4])
	}
	for r0 := 4; r0 < n; r0 += fillBlock {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r1 := min(r0+fillBlock, n)
		for r := r0; r < r1; r++ {
			t.fillRow(rd, n, r0, r)
		}
		// Mirror the block's rows left of it into its columns, one
		// cache-sized strip of source rows per pass.
		for c := 0; c < r0; c++ {
			dst := rd[c*n+r0 : c*n+r1]
			for i := range dst {
				dst[i] = rd[(r0+i)*n+c]
			}
		}
	}

	a := &APSP{N: n, Dist: w.Float64(n * n)}
	rank := t.rank
	err := pool.ForBlocked(ctx, n, 64, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			src := rd[int(rank[u])*n:][:n]
			dst := a.Dist[u*n:][:n]
			for v, rv := range rank[:n] {
				dst[v] = src[rv]
			}
		}
	})
	if err != nil {
		w.PutFloat64(a.Dist)
		return nil, err
	}
	return a, nil
}
