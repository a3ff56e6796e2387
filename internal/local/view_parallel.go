package local

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/ids"
)

// RunViewParallel is RunView with the per-vertex executions spread over a
// bounded worker pool. Vertices of the view engine are independent by
// construction (each grows its own ball; the graph and assignment are
// immutable), so the results are bit-identical to RunView — asserted in
// tests — while large sweeps use all cores.
//
// The observer option is supported; callbacks may arrive from concurrent
// workers and must be safe for concurrent use in this engine.
func RunViewParallel(g graph.Graph, a ids.Assignment, alg ViewAlgorithm, opts ...Option) (*Result, error) {
	n := g.N()
	if len(a) != n {
		return nil, fmt.Errorf("local: assignment covers %d vertices, graph has %d", len(a), n)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	cfg := newConfig(n, opts)
	res := &Result{
		Algorithm: alg.Name(),
		Outputs:   make([]int, n),
		Radii:     make([]int, n),
	}
	if n == 0 {
		return res, nil
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		next     int64
		mu       sync.Mutex
		firstErr error
	)
	nextVertex := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= int64(n) {
			return -1
		}
		v := int(next)
		next++
		return v
	}
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr == nil {
			firstErr = err
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runner := NewRunner() // per-worker scratch, reused across vertices
			for {
				v := nextVertex()
				if v < 0 {
					return
				}
				if err := ctxErr(cfg.ctx, cfg.done); err != nil {
					fail(err)
					return
				}
				out, r, err := runner.runVertex(g, a, alg, v, cfg)
				if err != nil {
					fail(err)
					return
				}
				res.Outputs[v] = out
				res.Radii[v] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}
