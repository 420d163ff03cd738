package experiments

import "repro/internal/graph"

// reachableStats measures mean shortest-path length over reachable alive
// pairs of g and the fraction of alive ordered pairs that are mutually
// reachable.
func reachableStats(g *graph.Graph, alive []bool) (meanPath, connectedFrac float64) {
	var sum float64
	var reachable, pairs int64
	for src := 0; src < g.N(); src++ {
		if !alive[src] {
			continue
		}
		dist := g.BFS(src)
		for dst := 0; dst < g.N(); dst++ {
			if dst == src || !alive[dst] {
				continue
			}
			pairs++
			if dist[dst] >= 0 {
				reachable++
				sum += float64(dist[dst])
			}
		}
	}
	if reachable > 0 {
		meanPath = sum / float64(reachable)
	}
	if pairs > 0 {
		connectedFrac = float64(reachable) / float64(pairs)
	}
	return meanPath, connectedFrac
}
