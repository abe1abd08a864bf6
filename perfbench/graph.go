package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/paperex"
	"repro/internal/relation"
	"repro/internal/workload"
)

// graphSize scales the graph-sharded workload.
type graphSize struct {
	grid int // the road network is grid×grid nodes
}

// The timed phase runs one round per secondsPerRound of --seconds (at
// least one): fixed work for a given --seconds, about that long on the
// reference host. Each round starts from a fresh load of the graph
// (set-up, off the clock) and runs a forward search, a backward search
// and a delete of every edge.
const secondsPerRound = 5

var (
	graphFull  = graphSize{grid: 256}
	graphSmoke = graphSize{grid: 12}
)

// edgeHash folds one (src, dst) pair into an order-independent checksum.
func edgeHash(src, dst int64) uint64 {
	return (uint64(src)<<32 | uint64(dst)) * 0x9e3779b97f4a7c15
}

// search is what one depth-first search over the whole graph finds: the
// search trees it grows when it restarts from each unvisited node in
// order, and the edges it streams with their checksum.
type search struct {
	trees, edges int
	sum          uint64
}

// wantSearch is the oracle for a search along one direction, computed
// from the edge list with plain adjacency lists. Which nodes a tree
// covers does not depend on the order edges are streamed in, so neither
// does the tree count.
func wantSearch(nodes int, edges []workload.GraphEdge, forward bool) search {
	adj := make([][]int64, nodes)
	want := search{edges: len(edges)}
	for _, e := range edges {
		want.sum += edgeHash(e.Src, e.Dst)
		if forward {
			adj[e.Src] = append(adj[e.Src], e.Dst)
		} else {
			adj[e.Dst] = append(adj[e.Dst], e.Src)
		}
	}
	seen := make([]bool, nodes)
	var stack []int64
	for v0 := range nodes {
		if seen[v0] {
			continue
		}
		want.trees++
		seen[v0] = true
		stack = append(stack[:0], int64(v0))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return want
}

// loadGraph builds the sharded edge relation (Figure 12's decomposition
// 5, sharded by src) and inserts every edge.
func loadGraph(edges []workload.GraphEdge) (*core.ShardedRelation, error) {
	sr, err := core.NewSharded(experiments.GraphSpec(), paperex.GraphDecomp5(), core.ShardOptions{
		ShardKey:    []string{"src"},
		AllowNonKey: true,
	})
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if err := sr.Insert(paperex.EdgeTuple(e.Src, e.Dst, e.Weight)); err != nil {
			return nil, err
		}
	}
	return sr, nil
}

// runGraph is the paper's Figure 11 road-network benchmark on the
// sharded tier: rounds of a forward depth-first search (queries bound on
// src, each routed to one shard), a backward one (bound on dst, fanned
// out to every shard), and a routed copy-on-write delete of every edge.
func runGraph(cfg config) (*outcome, error) {
	size := graphFull
	if cfg.smoke {
		size = graphSmoke
	}
	edges := workload.RoadNetwork(size.grid, cfg.seed)
	nodes := workload.NodeCount(size.grid)
	o := &outcome{report: map[string]metric{}}

	var (
		sr     *core.ShardedRelation
		setups []float64
		tr     *spanTracer
		met    *obs.Metrics
	)
	if cfg.trace {
		tr, met = newSpanTracer(), &obs.Metrics{}
	}
	// load is each round's set-up. The traced run attaches its counters
	// and tracer after the inserts, so they see only the timed phase.
	load := func() error {
		sr = nil
		start := time.Now()
		var err error
		if sr, err = loadGraph(edges); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if n := sr.Len(); n != len(edges) {
			o.mismatch("loaded %d edges, want %d", n, len(edges))
		}
		if met != nil {
			sr.SetMetrics(met)
			sr.SetTracer(&tr.plan)
		}
		return nil
	}
	base := liveHeap()
	if err := load(); err != nil {
		return nil, err
	}
	heapFull, tuples := liveHeap(), sr.Len()
	nodeCount := 0
	for i := 0; i < sr.NumShards(); i++ {
		nodeCount += sr.Shard(i).Instance().NodeCount()
	}
	if tr != nil {
		tr.reset()
	}

	var (
		clock stopwatch
		c     = chunker{clock: &clock} // one window per round
		mem   memDelta
	)
	// dfs searches the whole graph along one direction, querying each
	// node once and restarting from each unvisited node in order.
	dfs := func(op, bound, out string, kind int) search {
		var got search
		seen := make([]bool, nodes)
		stack := make([]int64, 0, 1024)
		for v0 := 0; v0 < nodes; v0++ {
			if !seen[v0] {
				got.trees++
			}
			stack = append(stack, int64(v0))
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[v] {
					continue
				}
				seen[v] = true
				o.attempted++
				tr.beginOp(op)
				tr.begin(spShrQuery)
				t0 := time.Now()
				err := sr.QueryFunc(relation.NewTuple(relation.BindInt(bound, v)), []string{out},
					func(t relation.Tuple) bool {
						w := t.MustGet(out).Int()
						got.edges++
						if bound == "src" {
							got.sum += edgeHash(v, w)
						} else {
							got.sum += edgeHash(w, v)
						}
						if !seen[w] {
							stack = append(stack, w)
						}
						return true
					})
				c.add(kind, time.Since(t0))
				tr.end()
				tr.end()
				if err != nil {
					o.failed++
				}
			}
		}
		return got
	}
	searches := []struct {
		op, bound, out string
		kind           int
		want           search
	}{
		{spOpForward, "src", "dst", latRead, wantSearch(nodes, edges, true)},
		{spOpBackward, "dst", "src", latFanout, wantSearch(nodes, edges, false)},
	}

	rounds := max(1, int(cfg.seconds/secondsPerRound))
	for r := range rounds {
		if r > 0 {
			if err := load(); err != nil {
				return nil, err
			}
		}
		// Each round starts from a collected heap, so the collector runs at
		// the same places in every round.
		runtime.GC()
		mem.begin()
		clock.start()
		c.begin()
		for _, s := range searches {
			got := dfs(s.op, s.bound, s.out, s.kind)
			if got != s.want {
				o.mismatch("round %d: %s search bound on %s grew %d trees and streamed %d edges with checksum %x; want %d, %d, %x",
					r, s.op, s.bound, got.trees, got.edges, got.sum, s.want.trees, s.want.edges, s.want.sum)
			}
		}
		for _, e := range edges {
			o.attempted++
			tr.beginOp(spOpDelete)
			tr.begin(spShrRemove)
			t0 := time.Now()
			n, err := sr.Remove(relation.NewTuple(relation.BindInt("src", e.Src), relation.BindInt("dst", e.Dst)))
			c.add(latWrite, time.Since(t0))
			tr.end()
			tr.end()
			if err != nil {
				o.failed++
			} else if n != 1 {
				o.mismatch("deleting edge %d→%d removed %d tuples", e.Src, e.Dst, n)
			}
		}
		c.close()
		clock.stop()
		mem.end()
		if n := sr.Len(); n != 0 {
			o.mismatch("round %d: %d edges left after deleting every edge", r, n)
		}
	}

	rate := o.setFigures(c.ws)
	o.set("setup_s", median(setups), "s")
	o.set("heap_bytes_per_tuple", heapPerTuple(base, heapFull, tuples), "B")
	o.set("peak_tuples", float64(tuples), "count")
	o.set("timed_s", clock.total.Seconds(), "s")

	if tr != nil {
		ls := newLayerSet()
		ls.fromSpans(tr)
		ls.fromCounters(met.Snapshot(), o.attempted, int64(2*rounds*nodes))
		ls.fromRuntime(mem, o.attempted, rate)
		ls.set("instance.nodes_per_tuple", ratio(float64(nodeCount), float64(tuples)))
		o.layers, o.spans = ls, tr
	}
	return o, nil
}
