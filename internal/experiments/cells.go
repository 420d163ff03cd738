package experiments

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	stringfigure "repro"
)

// runCells runs a figure's n independent cells on a pool and returns each
// cell's result at its index. The pool is as wide as a Saturation wave:
// GOMAXPROCS, or the harness cluster's slot capacity when that is larger.
// Cells are submitted highest cost first (index order when cost is nil),
// so the pool's tail — where a core sits idle — is short.
//
// The error is the lowest-index failing cell's: the one a serial loop over
// the cells in index order would stop at, whichever order or width they
// ran in. Once a cell fails, cells of higher index that have not started
// are skipped; their results could not change the outcome.
func runCells[T any](n int, cost func(i int) float64, cell func(i int) (T, error)) ([]T, error) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if cost != nil {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost(b), cost(a)) })
	}
	width := runtime.GOMAXPROCS(0)
	if cluster != nil {
		width = max(width, cluster.Capacity())
	}
	out := make([]T, n)
	errs := make([]error, n)
	var mu sync.Mutex
	next, failed := 0, n
	// take hands out the next submitted cell a failure has not made moot.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		for next < n {
			i := order[next]
			next++
			if i < failed {
				return i, true
			}
		}
		return 0, false
	}
	var wg sync.WaitGroup
	for range min(width, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				out[i], errs[i] = cell(i)
				if errs[i] != nil {
					mu.Lock()
					failed = min(failed, i)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sharedNets returns a lookup that builds each (design, N) network once, on
// first use, for every cell of one figure that runs on it: a Network runs
// concurrent sessions, and its route cache warms for all of them. A failed
// build reports its error to every cell that asks.
func sharedNets(seed int64) func(kind string, n int) (*stringfigure.Network, error) {
	type key struct {
		kind string
		n    int
	}
	var mu sync.Mutex
	builds := map[key]func() (*stringfigure.Network, error){}
	return func(kind string, n int) (*stringfigure.Network, error) {
		mu.Lock()
		build, ok := builds[key{kind, n}]
		if !ok {
			build = sync.OnceValues(func() (*stringfigure.Network, error) { return buildNet(kind, n, seed) })
			builds[key{kind, n}] = build
		}
		mu.Unlock()
		return build()
	}
}
