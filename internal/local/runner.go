package local

import (
	"fmt"
	"reflect"

	"repro/internal/graph"
	"repro/internal/ids"
)

// Runner executes view-engine runs with reusable scratch: one ball builder
// (reset per vertex instead of reallocated), the parallel identifier and
// degree slices, and the Result buffers. A warmed-up Runner performs whole
// executions without allocating, which is what makes large permutation
// sweeps allocation-bound on nothing but the algorithms themselves.
//
// A Runner is not safe for concurrent use; pools keep one per worker. The
// Result returned by Run aliases the Runner's buffers and is only valid
// until the next Run call — callers that need to retain it must copy the
// slices (RunView does exactly that ownership hand-off by dropping the
// Runner).
//
// With SetAtlas, a Runner additionally serves views from a shared
// graph.BallAtlas: ball structure is permutation-invariant, so per-trial
// work shrinks to relabelling identifiers over atlas prefix windows plus
// the algorithm's own decisions — no BFS, no adjacency rebuild, no degree
// lookups. If the algorithm also implements Kernel, the whole run
// collapses further into one flat DecideAll pass over the skeleton (see
// Kernel; WithoutKernels pins the view path). Results are byte-identical
// to the builder path either way.
type Runner struct {
	bb *graph.BallBuilder
	// src is the attached ball source serving kernel runs: a shared
	// *graph.BallAtlas (SetAtlas) or any other graph.BallSource such as a
	// per-worker implicit synthesizer (SetSource).
	src graph.BallSource
	// atlas is src when it is a materialised *graph.BallAtlas, nil
	// otherwise. Only a materialised atlas can serve the per-vertex VIEW
	// path (views enumerate adjacency rows, which synthesized skeletons do
	// not carry); non-kernel runs under any other source use the ball
	// builder — byte-identical, just without the shared-layer speedup.
	atlas *graph.BallAtlas
	// srcG is the source's graph when that graph is comparable, nil
	// otherwise — precomputed by SetSource so the per-run source check is a
	// single interface comparison (always safe: srcG's dynamic type is
	// comparable, and comparing against a value of any other type answers
	// false without inspecting the data).
	srcG    graph.Graph
	aball   graph.Ball // scratch ball whose slices window the atlas
	av      atlasView  // scratch atlas context referenced by served views
	ids     []int
	degrees []int
	res     Result
	cfg     config // per-run options, resolved into Runner-owned storage
	// cfgOpts/cfgN key the resolved cfg: batched sweeps hand the same
	// option slice to every trial, so the per-run resolution collapses to
	// an identity check. Callers must not mutate an Option slice in place
	// between Run calls (append-and-pass, the idiomatic form, is fine —
	// appending allocates a new backing array).
	cfgOpts []Option
	cfgN    int
	krun    KernelRun // scratch pass context handed to Kernel.DecideAll
}

// NewRunner returns an empty Runner; buffers are grown on first use.
func NewRunner() *Runner { return &Runner{} }

// SetAtlas attaches a shared ball atlas (nil detaches). The atlas is used
// only when its graph is the one passed to Run; vertices the atlas cannot
// serve (memory cap) transparently fall back to the ball-builder path.
func (r *Runner) SetAtlas(a *graph.BallAtlas) {
	if a == nil {
		r.SetSource(nil)
		return
	}
	r.SetSource(a)
}

// SetSource attaches any ball source (nil detaches). A *graph.BallAtlas
// serves both the kernel fast path and the per-vertex view path; every
// other source (implicit synthesizers) serves kernels only — non-kernel
// runs need adjacency rows, which only a materialised atlas carries, and
// fall back to the ball builder. The source is consulted only when its
// graph is the one passed to Run.
func (r *Runner) SetSource(src graph.BallSource) {
	r.src = src
	r.atlas, _ = src.(*graph.BallAtlas)
	r.srcG = nil
	if src != nil {
		// Interface equality panics for non-comparable dynamic graph
		// types, so those conservatively never match (and fall back to
		// the builder path).
		if sg := src.Graph(); sg != nil && reflect.TypeOf(sg).Comparable() {
			r.srcG = sg
		}
	}
}

// Run executes alg at every vertex of g under the identifier assignment a,
// exactly like RunView, but recycles the Runner's scratch and Result
// buffers. The returned Result is overwritten by the next Run. Options are
// resolved once per distinct (slice, n) pair and cached by slice identity:
// do not mutate an Option slice in place between Run calls — build a new
// one (or append, which reallocates) instead.
func (r *Runner) Run(g graph.Graph, a ids.Assignment, alg ViewAlgorithm, opts ...Option) (*Result, error) {
	n := g.N()
	if len(a) != n {
		return nil, fmt.Errorf("local: assignment covers %d vertices, graph has %d", len(a), n)
	}
	// Batched sweeps pass the identical option slice every trial; resolving
	// it once per (slice, n) pair keeps the per-run cost to two compares.
	if r.cfgN != n || !sameOpts(r.cfgOpts, opts) {
		newConfigInto(&r.cfg, n, opts)
		r.cfgOpts, r.cfgN = opts, n
	}
	cfg := r.cfg
	if !cfg.validated {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	r.res.Algorithm = alg.Name()
	r.res.Outputs = resizeInts(r.res.Outputs, n)
	r.res.Radii = resizeInts(r.res.Radii, n)
	useSrc := g == r.srcG
	if useSrc && !cfg.noKernels && cfg.observer == nil {
		// Kernel fast path: one flat pass over the source's skeletons.
		// Progress observers need the per-radius callbacks only the view
		// path makes, so their runs stay there.
		if k, ok := alg.(Kernel); ok {
			served, err := r.runKernel(g, a, alg, k, cfg)
			if err != nil {
				return nil, err
			}
			if served {
				return &r.res, nil
			}
		}
	}
	// The view path reads adjacency rows, so it is served only from a
	// materialised atlas; other sources degrade to the ball builder.
	useAtlas := useSrc && r.atlas != nil
	for v := 0; v < n; v++ {
		if v&0xff == 0 {
			if err := ctxErr(cfg.ctx, cfg.done); err != nil {
				return nil, err
			}
		}
		var (
			out, rad int
			err      error
			served   bool
		)
		if useAtlas {
			out, rad, served, err = r.runVertexAtlas(a, alg, v, cfg)
		}
		if !served && err == nil {
			out, rad, err = r.runVertex(g, a, alg, v, cfg)
		}
		if err != nil {
			return nil, err
		}
		r.res.Outputs[v] = out
		r.res.Radii[v] = rad
	}
	return &r.res, nil
}

// runKernel executes alg's flat kernel over the attached atlas and reruns
// any vertices the kernel marked unserved (memory-capped atlas) on the
// ball-builder path — the same per-vertex degradation the view path
// applies. served=false means the kernel declined the graph entirely and
// the caller must run the view path.
func (r *Runner) runKernel(g graph.Graph, a ids.Assignment, alg ViewAlgorithm, k Kernel, cfg config) (served bool, err error) {
	// The pass context lives on the Runner: passing a stack-local struct
	// through the interface call would force one heap escape per trial.
	// Fields are reset individually — the kernel's scratch survives (grown
	// once per Runner, not once per trial), and no struct temp is copied.
	r.krun.Atlas = r.src
	r.krun.Assign = a
	r.krun.Outs = r.res.Outputs
	r.krun.Radii = r.res.Radii
	r.krun.MaxRadius = cfg.maxRadius
	r.krun.Ctx, r.krun.done = cfg.ctx, cfg.done
	r.krun.Unserved = 0
	ok, err := k.DecideAll(&r.krun)
	if !ok || err != nil || r.krun.Unserved == 0 {
		return ok, err
	}
	for v, rad := range r.res.Radii {
		if v&0xff == 0 {
			if err := ctxErr(cfg.ctx, cfg.done); err != nil {
				return true, err
			}
		}
		if rad != KernelUnserved {
			continue
		}
		out, rad, err := r.runVertex(g, a, alg, v, cfg)
		if err != nil {
			return true, err
		}
		r.res.Outputs[v] = out
		r.res.Radii[v] = rad
	}
	return true, nil
}

// runVertexAtlas is runVertex served from the shared atlas: the ball's
// Verts/Dist arrays are prefix windows of the centre's atlas skeleton,
// degrees alias the skeleton, degree/completeness queries answer from the
// precomputed own-degrees, and adjacency rows materialise in the atlas
// only if the algorithm enumerates edges — so the per-radius work is just
// relabelling the new layer's identifiers and the algorithm's own Decide.
// served=false (with err=nil) means the atlas hit its memory cap and the
// caller must rerun the vertex on the builder path; a WithProgress
// observer may then see the abandoned attempt's early radii twice.
func (r *Runner) runVertexAtlas(a ids.Assignment, alg ViewAlgorithm, v int, cfg config) (out, radius int, served bool, err error) {
	st := r.atlas.Ensure(v, 0)
	if st == nil {
		return 0, 0, false, nil
	}
	ball := &r.aball
	ball.Radius = 0
	ball.Verts = st.Verts[:1]
	ball.Dist = st.Dist[:1]
	ball.Adj = nil
	r.av = atlasView{st: st, atlas: r.atlas, assign: a, center: v, centerID: a[v]}
	view := View{ball: ball, frontierStart: 0, av: &r.av}
	view.degrees = st.Degs[:1]
	for {
		out, done := alg.Decide(view)
		if cfg.observer != nil {
			cfg.observer(Progress{Vertex: v, Radius: ball.Radius, Decided: done})
		}
		if done {
			return out, ball.Radius, true, nil
		}
		if ball.Radius >= cfg.maxRadius {
			return 0, 0, true, fmt.Errorf("local: %s undecided at vertex %d after radius %d", alg.Name(), v, cfg.maxRadius)
		}
		newR := ball.Radius + 1
		if !st.Complete && newR > st.MaxRadius {
			if st = r.atlas.Ensure(v, newR); st == nil {
				return 0, 0, false, nil
			}
			r.av.st = st
		}
		prevEnd := len(ball.Verts)
		newEnd := st.SizeAt(newR)
		ball.Verts = st.Verts[:newEnd]
		ball.Dist = st.Dist[:newEnd]
		ball.Radius = newR
		view.frontierStart = prevEnd
		view.degrees = st.Degs[:newEnd]
	}
}

// runVertex grows vertex v's view until alg decides, reusing the Runner's
// ball builder and label slices.
func (r *Runner) runVertex(g graph.Graph, a ids.Assignment, alg ViewAlgorithm, v int, cfg config) (out, radius int, err error) {
	if r.bb == nil {
		r.bb = graph.NewBallBuilder(g, v)
	} else {
		r.bb.Reset(g, v)
	}
	view := View{ball: r.bb.Ball(), frontierStart: 0}
	view.ids, view.degrees = labelsFor(g, view.ball, a, r.ids[:0], r.degrees[:0])
	for {
		out, done := alg.Decide(view)
		if cfg.observer != nil {
			cfg.observer(Progress{Vertex: v, Radius: view.Radius(), Decided: done})
		}
		if done {
			// Hand the (possibly re-grown) label buffers back so their
			// capacity carries over to the next vertex.
			r.ids, r.degrees = view.ids, view.degrees
			return out, view.Radius(), nil
		}
		if view.Radius() >= cfg.maxRadius {
			r.ids, r.degrees = view.ids, view.degrees
			return 0, 0, fmt.Errorf("local: %s undecided at vertex %d after radius %d", alg.Name(), v, cfg.maxRadius)
		}
		start := r.bb.Grow()
		view.frontierStart = start
		view.ids, view.degrees = labelsFor(g, view.ball, a, view.ids[:start], view.degrees[:start])
	}
}

// sameOpts reports whether two option slices are the identical slice —
// same backing array, same length — which is how batched callers reuse one
// resolved config across trials.
func sameOpts(a, b []Option) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// resizeInts returns s with length exactly n, reusing capacity. A fresh
// buffer keeps 128 bytes of unused backing array on each side: a sweep
// worker rewrites its Runner's result buffers every trial, and no other
// allocation — another worker's, or data every worker reads — may share
// their cache lines.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		const pad = 16
		return make([]int, n+2*pad)[pad : pad+n : pad+n]
	}
	return s[:n]
}
