package graph

import (
	"context"
	"errors"
	"math"
	"testing"

	"pfg/internal/exec"
)

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// FuzzAPSP builds a stacked 3-tree from the input — stacking choices,
// vertex labels and weights all come from the bytes — optionally corrupts
// it (an edge rewired, dropped or added, a weight made negative, NaN or
// +Inf), and cross-checks AllPairsShortestPathsWS against Dijkstra. It must
// never panic: bad weights give ErrBadWeight on both strategies, 3-trees
// agree with per-source Dijkstra to rounding, and every other graph is
// bit-identical to the Dijkstra APSP.
func FuzzAPSP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 20, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	for mode := byte(0); mode < 16; mode++ {
		f.Add([]byte{mode, 40, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6})
	}
	ctx := context.Background()
	pool := exec.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		mode := in.next()
		n := 4 + int(in.next())%60
		perm := make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		for i := n - 1; i > 0; i-- {
			j := int(in.next()) % (i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		pick := func(k int) int { return int(in.next()) % k }
		weight := func() float64 { return float64(in.next()) / 64 }
		edges := stackedThreeTree(n, mode&1 != 0, pick, perm, weight)
		e := int(in.next()) % len(edges)
		x, y := int32(in.next())%int32(n), int32(in.next())%int32(n)
		badWeight := false
		corruption := (mode >> 1) % 8
		switch corruption {
		case 1: // rewire one endpoint
			edges[e].V = x
		case 2: // drop an edge
			edges = append(edges[:e], edges[e+1:]...)
		case 3: // add an edge
			edges = append(edges, Edge{U: x, V: y, W: 1})
		case 4:
			edges[e].W, badWeight = -edges[e].W-1e-300, true
		case 5:
			edges[e].W, badWeight = math.NaN(), true
		case 6:
			edges[e].W = math.Inf(1)
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return // self loop or duplicate edge from the corruption
		}
		a, err := g.AllPairsShortestPathsCtx(ctx, pool)
		d, derr := g.AllPairsShortestPathsDijkstraWS(ctx, pool, nil)
		if badWeight {
			if !errors.Is(err, ErrBadWeight) || !errors.Is(derr, ErrBadWeight) {
				t.Fatalf("bad weight: errors %v and %v, want ErrBadWeight", err, derr)
			}
			return
		}
		if err != nil || derr != nil {
			t.Fatalf("errors %v and %v", err, derr)
		}
		if corruption == 0 && !g.IsThreeTree() {
			t.Fatal("uncorrupted stacked 3-tree not recognised")
		}
		if g.IsThreeTree() {
			checkAgainstOracle(t, g, a)
			return
		}
		for i := range d.Dist {
			if math.Float64bits(a.Dist[i]) != math.Float64bits(d.Dist[i]) {
				t.Fatalf("non-3-tree: dist[%d] = %v, Dijkstra %v", i, a.Dist[i], d.Dist[i])
			}
		}
	})
}
