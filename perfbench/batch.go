package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/analytic"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/problems"
	"repro/internal/sweep"
)

// batch describes a batch workload: the sweeps of its 2-worker leg, the
// first of which is also run with 1 worker for speedup_2w.
type batch struct {
	specs []sweep.Spec
	// vertices is the number of vertices one run of specs[k] decides.
	vertices []int64
	// verify checks one trial of specs[k] in the verification pass.
	verify []func(g graph.Graph, a ids.Assignment, res *local.Result) error
	// leg runs sweep k once, untraced, on the given workers through the
	// workload's public API, and returns its output bytes, its wall time
	// and its set-up time. out turns the verification pass's sweep.Result
	// of sweep k into the bytes leg returns.
	leg func(k, workers int) (out []byte, wall, setup time.Duration, err error)
	out func(res *sweep.Result) ([]byte, error)
}

// sweepBatch is a batch whose legs call sweep.Run on the specs.
func sweepBatch(specs []sweep.Spec, vertices []int64, verify ...func(graph.Graph, ids.Assignment, *local.Result) error) *batch {
	return &batch{
		specs:    specs,
		vertices: vertices,
		verify:   verify,
		leg: func(k, workers int) ([]byte, time.Duration, time.Duration, error) {
			res, wall, setup, err := runTimed(specs[k], workers)
			if err != nil {
				return nil, 0, 0, err
			}
			raw, err := encode(res)
			return raw, wall, setup, err
		},
		out: encode,
	}
}

// iteration is what one pass of the timed loop measured.
type iteration struct {
	setup, wall2, wall1, speedup, rate float64
	// steal is the share of CPU ticks the hypervisor took meanwhile.
	steal float64
}

// legs is what the timed loop measured.
type legs struct {
	its []iteration
	// rss is the highest resident set sampled during the loop, in MiB.
	rss float64
	// results holds the 2-worker outputs of the first iteration; every
	// later run must produce the same bytes.
	results [][]byte
}

func pruningAlg(int, ids.Assignment) local.ViewAlgorithm { return largestid.Pruning{} }

func cvAlg(_ int, a ids.Assignment) local.ViewAlgorithm { return coloring.ForMaxID(a.MaxID()) }

func cycleGraph(n int, _ *rand.Rand) (graph.Graph, error) { return graph.NewCycle(n) }

// cycleSpec is a sampled sweep over cycles with uniformly random IDs. The
// explicit AtlasMemLimit (the default cap) gives every run a private atlas
// instead of the process-wide atlas cache, so each run pays the atlas fill
// a fresh avgbench invocation pays.
func cycleSpec(seed int64, sizes []int, trials int, alg func(int, ids.Assignment) local.ViewAlgorithm) sweep.Spec {
	return sweep.Spec{
		Seed:          seed,
		Sizes:         sizes,
		Trials:        trials,
		Graph:         cycleGraph,
		Alg:           alg,
		AtlasMemLimit: graph.DefaultAtlasMemLimit,
	}
}

// checkPruningRadii compares a pruning trial with the closed-form radii.
// corrupt damages a copy of the engine's radii first (smoke test only).
func checkPruningRadii(corrupt bool) func(graph.Graph, ids.Assignment, *local.Result) error {
	var once sync.Once
	return func(_ graph.Graph, a ids.Assignment, res *local.Result) error {
		got := res.Radii
		if corrupt {
			once.Do(func() {
				got = append([]int(nil), res.Radii...)
				got[0]++
			})
		}
		if want := exact.PruningRadii(a); !slices.Equal(got, want) {
			return fmt.Errorf("pruning radii differ from the closed form at n=%d", len(a))
		}
		return nil
	}
}

func checkColoring(g graph.Graph, a ids.Assignment, res *local.Result) error {
	return problems.Coloring{K: 3}.Verify(g, a, res.Outputs)
}

func encode(res *sweep.Result) ([]byte, error) {
	var buf bytes.Buffer
	if err := sweep.EncodeResult(&buf, res); err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return buf.Bytes(), nil
}

// runTimed runs spec with the given workers and reports the run's wall
// time and the time from its start to the first completed trial, seen
// through Spec.Observe (the only hook a timed run carries).
func runTimed(spec sweep.Spec, workers int) (*sweep.Result, time.Duration, time.Duration, error) {
	var first atomic.Int64
	spec.Workers = workers
	spec.Observe = func(int, int, graph.Graph, ids.Assignment, *local.Result) {
		if first.Load() == 0 {
			first.CompareAndSwap(0, time.Now().UnixNano())
		}
	}
	settle()
	t0 := time.Now()
	res, err := sweep.Run(context.Background(), spec)
	wall := time.Since(t0)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, wall, time.Duration(first.Load() - t0.UnixNano()), nil
}

// timeBatch runs the timed loop: every iteration runs each sweep on 2
// workers and the first on 1 worker, until the budget is spent (at least
// minIter iterations). setup sums the set-up times of the 2-worker leg's
// sweeps. Byte identity across workers and iterations is checked outside
// the timed regions.
func timeBatch(b *batch, budget time.Duration, minIter int, ck *checks) (*legs, error) {
	l := &legs{}
	rss := startRSS()
	defer rss.close()
	start := time.Now()
	for it := 0; it < minIter || time.Since(start) < budget; it++ {
		h0, err := readTicks()
		if err != nil {
			return nil, err
		}
		var x iteration
		var wall2, first2 time.Duration
		var verts int64
		for k := range b.specs {
			raw, wall, setup, err := b.leg(k, 2)
			if err != nil {
				return nil, err
			}
			if k == 0 {
				first2 = wall
			}
			x.setup += setup.Seconds()
			wall2 += wall
			verts += b.vertices[k]
			if it == 0 {
				l.results = append(l.results, raw)
			} else {
				ck.check(sameBytes(raw, l.results[k], "2-worker result of iteration %d, sweep %d", it, k))
			}
		}
		raw1, wall1, _, err := b.leg(0, 1)
		if err != nil {
			return nil, err
		}
		ck.check(sameBytes(raw1, l.results[0], "1-worker result of iteration %d", it))
		h1, err := readTicks()
		if err != nil {
			return nil, err
		}
		x.wall2 = wall2.Seconds()
		x.wall1 = wall1.Seconds()
		x.speedup = wall1.Seconds() / first2.Seconds()
		x.rate = float64(verts) / wall2.Seconds()
		x.steal = h1.stealSince(h0)
		l.its = append(l.its, x)
	}
	l.rss = rss.peakMiB()
	return l, nil
}

func sameBytes(got, want []byte, format string, args ...any) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("bytes differ: "+format, args...)
	}
	return nil
}

// verifyBatch is the untimed verification pass: it reruns every spec
// with its per-trial check attached through Spec.Observe and requires the
// same output bytes as the timed runs. It returns the encoded result of
// the first sweep.
func verifyBatch(b *batch, l *legs, ck *checks) ([]byte, error) {
	var first []byte
	for k, spec := range b.specs {
		var mu sync.Mutex
		vc := checks{}
		check := b.verify[k]
		spec.Workers = 2
		spec.Observe = func(_, _ int, g graph.Graph, a ids.Assignment, res *local.Result) {
			err := check(g, a, res)
			mu.Lock()
			vc.check(err)
			mu.Unlock()
		}
		res, err := sweep.Run(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		ck.attempted += vc.attempted
		ck.failed += vc.failed
		if ck.firstErr == nil {
			ck.firstErr = vc.firstErr
		}
		out, err := b.out(res)
		if err != nil {
			return nil, err
		}
		ck.check(sameBytes(out, l.results[k], "verification pass of sweep %d", k))
		if k == 0 {
			if first, err = encode(res); err != nil {
				return nil, err
			}
		}
	}
	return first, nil
}

// addTimed reports the timed loop's end-to-end metrics: medians over the
// iterations the host did not contend (see quiet).
func addTimed(rep *report, l *legs, minIter int) {
	kept := quiet(l.its, func(x iteration) float64 { return x.steal }, minIter)
	rep.add("setup_s", medianOf(kept, func(x iteration) float64 { return x.setup }), "s")
	rep.add("wall_s", medianOf(kept, func(x iteration) float64 { return x.wall2 }), "s")
	rep.add("vertices_per_s", medianOf(kept, func(x iteration) float64 { return x.rate }), "1/s")
	rep.add("speedup_2w", medianOf(kept, func(x iteration) float64 { return x.speedup }), "ratio")
	rep.add("peak_rss_mib", l.rss, "MiB")
	rep.add("wall_1w_s", medianOf(kept, func(x iteration) float64 { return x.wall1 }), "s")
	rep.add("iterations", float64(len(l.its)), "count")
	rep.add("median_iterations", float64(len(kept)), "count")
}

// addHWM reports the process's lifetime peak resident set size, which
// also covers the verification pass and any collection that ran late.
func addHWM(rep *report) error {
	hwm, err := peakRSSMiB()
	if err != nil {
		return err
	}
	rep.add("vmhwm_mib", hwm, "MiB")
	return nil
}

// captured is one trial seen by the traced pass, copied out for replay.
type captured struct {
	sizeIdx, trial int
	a              ids.Assignment
	radii          []int
}

// tracedPass runs spec with tracing on: a span per sweep.Run, a span per
// completed block (from its first completed trial to Spec.OnBlock), and
// copies of the first keep trials of every size for the layer replays.
// count bounds the trial index at every size. It returns the captures, the
// completed blocks and the wall time.
func tracedPass(tr *tracer, spec sweep.Spec, workers, keep, count int) ([]captured, []sweep.Block, time.Duration, error) {
	var (
		mu     sync.Mutex
		caps   []captured
		blocks []sweep.Block
	)
	// done[size][trial] is the trial's completion time. Each slot is
	// written by the one worker running its block and read by the same
	// worker's OnBlock call, so it needs no lock.
	done := make([][]int64, len(spec.Sizes))
	for i := range done {
		done[i] = make([]int64, count)
	}
	spec.Workers = workers
	runID, end := tr.open("sweep.Run", 0)
	spec.Observe = func(sizeIdx, trial int, _ graph.Graph, a ids.Assignment, res *local.Result) {
		done[sizeIdx][trial] = time.Now().UnixNano()
		if trial < keep {
			mu.Lock()
			caps = append(caps, captured{sizeIdx, trial, slices.Clone(a), slices.Clone(res.Radii)})
			mu.Unlock()
		}
	}
	spec.OnBlock = func(b sweep.Block, _ *sweep.SizeStats) {
		now := time.Now()
		tr.record("sweep.block", runID, time.Unix(0, done[b.SizeIdx][b.T0]), now, int64(b.T1-b.T0))
		mu.Lock()
		blocks = append(blocks, b)
		mu.Unlock()
	}
	settle()
	t0 := time.Now()
	_, err := sweep.Run(context.Background(), spec)
	wall := time.Since(t0)
	end(0)
	if err != nil {
		return nil, nil, 0, err
	}
	slices.SortFunc(caps, func(x, y captured) int {
		if x.sizeIdx != y.sizeIdx {
			return x.sizeIdx - y.sizeIdx
		}
		return x.trial - y.trial
	})
	return caps, blocks, wall, nil
}

// replay holds a layer replay's totals for one spec.
type replay struct {
	fill, grow, ensure, draw, run, walk, unrank time.Duration
	// wall1 is an untraced 1-worker run timed just before the pass.
	wall1                time.Duration
	vr, vertices, trials int64
	atlasBytes           int64
}

func (rp *replay) times() []*time.Duration {
	return []*time.Duration{&rp.fill, &rp.grow, &rp.ensure, &rp.draw, &rp.run, &rp.walk, &rp.unrank, &rp.wall1}
}

// replayReps is how many times each replay runs; the layer metrics take
// the median of each measured time, so one pass the host descheduled does
// not skew a layer.
const replayReps = 3

// replayMedian runs a replay replayReps times into fresh totals and
// returns the median of each time (counts are the same in every pass).
func replayMedian(run func(rp *replay) error) (*replay, error) {
	var passes []*replay
	for i := 0; i < replayReps; i++ {
		rp := &replay{}
		if err := run(rp); err != nil {
			return nil, err
		}
		passes = append(passes, rp)
	}
	out := *passes[0]
	for i, d := range out.times() {
		xs := make([]float64, len(passes))
		for k, p := range passes {
			xs[k] = float64(*p.times()[i])
		}
		*d = time.Duration(median(xs))
	}
	return &out, nil
}

// timeIt runs fn and records it as a span.
func timeIt(tr *tracer, name string, parent int64, units int64, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	tr.record(name, parent, t0, t1, units)
	return t1.Sub(t0)
}

// replayGrowth replays the atlas growth of a whole sweep: a fresh atlas
// per size, then Ensure(v, r(v)) for every vertex of every captured trial
// in trial order, as the sweep grew it. fill is the first trial of each
// size. It returns the grown atlases, indexed like spec.Sizes.
func replayGrowth(tr *tracer, spec sweep.Spec, caps []captured, rp *replay) ([]*graph.BallAtlas, error) {
	root, end := tr.open("bench.replay", 0)
	defer end(0)
	atlases := make([]*graph.BallAtlas, len(spec.Sizes))
	for _, c := range caps {
		atlas := atlases[c.sizeIdx]
		name := "graph.BallAtlas.Ensure/grow"
		if atlas == nil {
			g, err := spec.Graph(spec.Sizes[c.sizeIdx], nil)
			if err != nil {
				return nil, err
			}
			atlas = graph.NewBallAtlas(g, graph.DefaultAtlasMemLimit)
			atlases[c.sizeIdx] = atlas
			name = "graph.BallAtlas.Ensure/fill"
		}
		d := timeIt(tr, name, root, sumInts(c.radii), func() {
			for v, r := range c.radii {
				atlas.Ensure(v, r)
			}
		})
		rp.grow += d
		if name == "graph.BallAtlas.Ensure/fill" {
			rp.fill += d
		}
	}
	for _, a := range atlases {
		if a != nil {
			rp.atlasBytes += a.MemUsed()
		}
	}
	return atlases, nil
}

// replayBallSource replays the ball-source, identifier-draw and decide
// layers on captured trials of spec: steady-state Ensure over every
// captured trial, ids.RandomInto at each size, and Runner.Run with the
// source attached (whose results must match the captured radii). The
// source is graph.ImplicitBalls under the implicit backend, else the
// size's atlas from grown, which replayGrowth built from the same trials.
// runName names the decide span ("local.Runner.Run/kernel" or "/view").
func replayBallSource(tr *tracer, spec sweep.Spec, caps []captured, grown []*graph.BallAtlas, runName string, rp *replay, ck *checks) error {
	root, end := tr.open("bench.replay", 0)
	defer end(0)
	rng := rand.New(rand.NewSource(spec.Seed))
	opts := []local.Option{local.WithValidatedIDs()}
	for si, n := range spec.Sizes {
		var trials []captured
		for _, c := range caps {
			if c.sizeIdx == si {
				trials = append(trials, c)
			}
		}
		if len(trials) == 0 {
			continue
		}
		g, err := spec.Graph(n, nil)
		if err != nil {
			return err
		}
		var (
			src    graph.BallSource
			ensure = "graph.ImplicitBalls.Ensure"
		)
		if spec.Backend == sweep.BackendImplicit {
			src = graph.NewImplicitBalls(g.(graph.Implicit))
		} else {
			src, ensure = grown[si], "graph.BallAtlas.Ensure"
		}
		for _, c := range trials {
			rp.ensure += timeIt(tr, ensure, root, sumInts(c.radii), func() {
				for v, r := range c.radii {
					src.Ensure(v, r)
				}
			})
			rp.vr += sumInts(c.radii)
		}
		buf := make([]int, n)
		for range trials {
			rp.draw += timeIt(tr, "ids.RandomInto", root, int64(n), func() { ids.RandomInto(buf, rng) })
		}
		runner := local.NewRunner()
		runner.SetSource(src)
		for _, c := range trials {
			var res *local.Result
			var rerr error
			rp.run += timeIt(tr, runName, root, int64(n), func() {
				res, rerr = runner.Run(g, c.a, spec.Alg(n, c.a), opts...)
			})
			if rerr != nil {
				return rerr
			}
			ck.check(sameInts(res.Radii, c.radii, "replayed %s radii at n=%d", runName, n))
			rp.vertices += int64(n)
			rp.trials++
		}
	}
	return nil
}

func sumInts(xs []int) int64 {
	var s int64
	for _, x := range xs {
		s += int64(x)
	}
	return s
}

func sameInts(got, want []int, format string, args ...any) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("differ: "+format, args...)
	}
	return nil
}

// perUnit is d per unit in the given unit of time (ns, us, ...).
func perUnit(d time.Duration, units int64, unit time.Duration) float64 {
	if units == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(units)
}

// codecProbe times EncodeResult, DecodeResult and MergeResults on a
// workload result and checks the decode round trip.
func codecProbe(tr *tracer, rep *report, raw []byte, ck *checks) error {
	res, err := sweep.DecodeResult(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("decode result: %w", err)
	}
	const reps = 50
	root, end := tr.open("bench.replay", 0)
	defer end(0)
	var enc, dec, merge time.Duration
	for i := 0; i < reps; i++ {
		var out []byte
		enc += timeIt(tr, "sweep.EncodeResult", root, int64(len(raw)), func() { out, err = encode(res) })
		if err != nil {
			return err
		}
		var back *sweep.Result
		dec += timeIt(tr, "sweep.DecodeResult", root, int64(len(raw)), func() { back, err = sweep.DecodeResult(bytes.NewReader(out)) })
		if err != nil {
			return fmt.Errorf("decode result: %w", err)
		}
		merge += timeIt(tr, "sweep.MergeResults", root, 1, func() { _, err = sweep.MergeResults(back, res) })
		if err != nil {
			return fmt.Errorf("merge results: %w", err)
		}
		if i == 0 {
			again, err := encode(back)
			if err != nil {
				return err
			}
			ck.check(sameBytes(again, raw, "codec round trip"))
		}
	}
	rep.addLayer("sweep.codec_bytes", float64(len(raw)), "bytes")
	rep.addLayer("sweep.codec_us", perUnit(enc+dec, reps, time.Microsecond), "us")
	rep.addLayer("sweep.merge_us", perUnit(merge, reps, time.Microsecond), "us")
	return nil
}

// addReplayLayers reports the ball-source, draw and decide layer metrics of
// a pruning replay.
func addReplayLayers(rep *report, rp *replay, implicit bool) {
	if implicit {
		rep.addLayer("graph.implicit_ns_per_vr", perUnit(rp.ensure, rp.vr, time.Nanosecond), "ns")
	} else {
		rep.addLayer("graph.atlas_fill_s", rp.fill.Seconds(), "s")
		rep.addLayer("graph.atlas_mib", float64(rp.atlasBytes)/(1<<20), "MiB")
		rep.addLayer("graph.atlas_serve_ns_per_vr", perUnit(rp.ensure, rp.vr, time.Nanosecond), "ns")
	}
	rep.addLayer("ids.draw_ns_per_vertex", perUnit(rp.draw, rp.vertices, time.Nanosecond), "ns")
	rep.addLayer("local.kernel_ns_per_vertex", perUnit(rp.run-rp.ensure, rp.vertices, time.Nanosecond), "ns")
}

// replayedLeg is the replayed layer time of a run whose every trial was
// replayed: the atlas growth plus, per trial, the identifier draw and the
// decide pass (whose Ensure hits the decide replay includes).
func replayedLeg(rp *replay) time.Duration { return rp.grow + rp.draw + rp.run }

// addResidual reports sweep.residual_s: the 1-worker wall time minus the
// replayed layer time, which leaves plan, scheduling and fold.
func addResidual(rep *report, wall1 float64, replayed time.Duration) {
	rep.addLayer("sweep.residual_s", wall1-replayed.Seconds(), "s")
	rep.notes = append(rep.notes, fmt.Sprintf("1-worker wall %.6f s = replayed layers %.6f s + sweep.residual_s %.6f s",
		wall1, replayed.Seconds(), wall1-replayed.Seconds()))
}

// -------------------------------------------------------------------------
// sampled-cycle

func sampledBatch(cfg config) *batch {
	sizes, pt, ct := []int{4096, 16384}, 48, 12
	if cfg.scale == tiny {
		sizes, pt, ct = []int{64, 256}, 6, 3
	}
	return sweepBatch(
		[]sweep.Spec{cycleSpec(cfg.seed, sizes, pt, pruningAlg), cycleSpec(cfg.seed, sizes, ct, cvAlg)},
		[]int64{sumInts(sizes) * int64(pt), sumInts(sizes) * int64(ct)},
		checkPruningRadii(cfg.corrupt), checkColoring)
}

func minIter(cfg config) int {
	if cfg.scale == tiny {
		return 1
	}
	return 3
}

// runBatchCommon runs the timed loop and the verification pass, and
// reports the end-to-end metrics (under tracing, the untraced reference).
// It returns the timed loop and the encoded sweep.Result of the first
// sweep's verification pass.
func runBatchCommon(cfg config, b *batch, rep *report) (*legs, []byte, error) {
	l, err := timeBatch(b, cfg.budget, minIter(cfg), &rep.checks)
	if err != nil {
		return nil, nil, err
	}
	addTimed(rep, l, minIter(cfg))
	raw, err := verifyBatch(b, l, &rep.checks)
	if err != nil {
		return nil, nil, err
	}
	return l, raw, addHWM(rep)
}

// tracePairs is how many untraced/traced pairs of the 2-worker leg the
// traced run measures; the overhead is the median of their ratios, each
// pair run back to back so a change in host speed cancels within it.
const tracePairs = 3

// traceBatch runs tracePairs pairs of the 2-worker leg, untraced then
// traced, keeping the first keep trials of every size from the first
// traced pass, then the first spec traced at 1 worker, keeping keep1. It
// reports the tracing overhead and the 2-worker block count, and returns
// the captures and the 1-worker block heads.
func traceBatch(cfg config, b *batch, keep, keep1, count int, rep *report) (caps2 [][]captured, caps1 []captured, blocks1 []sweep.Block, err error) {
	var ratios []float64
	var blocks2 int
	for pair := 0; pair < tracePairs; pair++ {
		var plain, traced time.Duration
		for k, spec := range b.specs {
			_, wall, _, err := b.leg(k, 2)
			if err != nil {
				return nil, nil, nil, err
			}
			plain += wall
			c, blocks, wall, err := tracedPass(cfg.tr, spec, 2, keep, count)
			if err != nil {
				return nil, nil, nil, err
			}
			traced += wall
			if pair == 0 {
				caps2 = append(caps2, c)
				if k == 0 {
					blocks2 = len(blocks)
				}
			}
		}
		ratios = append(ratios, traced.Seconds()/plain.Seconds())
		keep = 0
	}
	caps1, blocks1, _, err = tracedPass(cfg.tr, b.specs[0], 1, keep1, count)
	if err != nil {
		return nil, nil, nil, err
	}
	rep.addLayer("sweep.blocks", float64(blocks2), "count")
	rep.addLayer("trace.overhead_share", median(ratios)-1, "ratio")
	return caps2, caps1, blocks1, nil
}

// timeLeg1 times one untraced 1-worker run of the first sweep into
// rp.wall1, so each replay pass is accounted against a 1-worker wall
// measured next to it.
func timeLeg1(b *batch, rp *replay) error {
	_, wall, _, err := b.leg(0, 1)
	rp.wall1 = wall
	return err
}

func runSampled(cfg config) (*report, error) {
	rep := &report{}
	b := sampledBatch(cfg)
	_, raw, err := runBatchCommon(cfg, b, rep)
	if err != nil || !cfg.trace {
		return rep, err
	}
	trials := b.specs[0].Trials
	caps, caps1, _, err := traceBatch(cfg, b, 4, trials, trials, rep)
	if err != nil {
		return nil, err
	}
	// Replay every trial of the 1-worker leg on the atlases its growth
	// replay built, so the layers account for that leg's wall time.
	prune, err := replayMedian(func(rp *replay) error {
		if err := timeLeg1(b, rp); err != nil {
			return err
		}
		grown, err := replayGrowth(cfg.tr, b.specs[0], caps1, rp)
		if err != nil {
			return err
		}
		return replayBallSource(cfg.tr, b.specs[0], caps1, grown, "local.Runner.Run/kernel", rp, &rep.checks)
	})
	if err != nil {
		return nil, err
	}
	view, err := replayMedian(func(rp *replay) error {
		grown, err := replayGrowth(cfg.tr, b.specs[1], caps[1], rp)
		if err != nil {
			return err
		}
		return replayBallSource(cfg.tr, b.specs[1], caps[1], grown, "local.Runner.Run/view", rp, &rep.checks)
	})
	if err != nil {
		return nil, err
	}
	addReplayLayers(rep, prune, false)
	rep.addLayer("graph.vr_per_vertex", float64(prune.vr)/float64(prune.vertices), "count")
	rep.addLayer("local.view_ns_per_vertex", perUnit(view.run, view.vertices, time.Nanosecond), "ns")
	addResidual(rep, prune.wall1.Seconds(), replayedLeg(prune))
	return rep, codecProbe(cfg.tr, rep, raw, &rep.checks)
}

// -------------------------------------------------------------------------
// implicit-large

func runImplicit(cfg config) (*report, error) {
	n, trials := 1<<18, 8
	if cfg.scale == tiny {
		n, trials = 1<<10, 4
	}
	spec := cycleSpec(cfg.seed, []int{n}, trials, pruningAlg)
	spec.Backend = sweep.BackendImplicit
	spec.AtlasMemLimit = 0
	b := sweepBatch([]sweep.Spec{spec}, []int64{int64(n) * int64(trials)}, checkPruningRadii(cfg.corrupt))
	rep := &report{}
	_, raw, err := runBatchCommon(cfg, b, rep)
	if err != nil || !cfg.trace {
		return rep, err
	}
	_, caps1, _, err := traceBatch(cfg, b, 0, trials, trials, rep)
	if err != nil {
		return nil, err
	}
	rp, err := replayMedian(func(rp *replay) error {
		if err := timeLeg1(b, rp); err != nil {
			return err
		}
		return replayBallSource(cfg.tr, spec, caps1, nil, "local.Runner.Run/kernel", rp, &rep.checks)
	})
	if err != nil {
		return nil, err
	}
	addReplayLayers(rep, rp, true)
	rep.addLayer("graph.vr_per_vertex", float64(rp.vr)/float64(rp.vertices), "count")
	addResidual(rep, rp.wall1.Seconds(), replayedLeg(rp))
	return rep, codecProbe(cfg.tr, rep, raw, &rep.checks)
}

// -------------------------------------------------------------------------
// exact-quotient

// exactSpec is the sweep exact.Distribution builds for the pruning
// algorithm on the cycle g: exhaustive symmetry-quotient enumeration over
// the shared atlas. exact.Options has no per-trial hook, so the set-up
// probe, the verification pass and the traced pass run this spec through
// sweep.Run with Observe attached; the timed legs call exact.CycleStats.
func exactSpec(g graph.Graph) sweep.Spec {
	return sweep.Spec{
		Sizes:      []int{g.N()},
		Exhaustive: true,
		Quotient:   true,
		Graph:      func(int, *rand.Rand) (graph.Graph, error) { return g, nil },
		Alg:        pruningAlg,
	}
}

// setupStarts is how many starts the exact-quotient set-up probe takes
// per iteration. Set-up there is a fraction of a millisecond, so one
// start would mostly measure the scheduler.
const setupStarts = 25

// exactLeg runs exact.CycleStats on the n-cycle with the given workers and
// returns its Stats as JSON. The set-up time of a 2-worker leg is the
// median over setupStarts starts of spec, each cancelled at its first
// completed trial.
func exactLeg(n int, spec sweep.Spec) func(k, workers int) ([]byte, time.Duration, time.Duration, error) {
	return func(_, workers int) ([]byte, time.Duration, time.Duration, error) {
		var setup time.Duration
		if workers == 2 {
			var starts []float64
			for i := 0; i < setupStarts; i++ {
				d, err := firstTrial(spec, workers)
				if err != nil {
					return nil, 0, 0, err
				}
				starts = append(starts, float64(d))
			}
			setup = time.Duration(median(starts))
		}
		settle()
		t0 := time.Now()
		st, err := exact.CycleStats(context.Background(), n, exact.Options{Workers: workers})
		wall := time.Since(t0)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("exact.CycleStats: %w", err)
		}
		raw, err := json.Marshal(st)
		return raw, wall, setup, err
	}
}

// firstTrial starts spec on the given workers and returns the time from
// sweep.Run to its first completed trial, where it cancels the run.
func firstTrial(spec sweep.Spec, workers int) (time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first atomic.Int64
	spec.Workers = workers
	spec.Observe = func(int, int, graph.Graph, ids.Assignment, *local.Result) {
		if first.CompareAndSwap(0, time.Now().UnixNano()) {
			cancel()
		}
	}
	settle()
	t0 := time.Now()
	_, err := sweep.Run(ctx, spec)
	if err != nil && !errors.Is(err, context.Canceled) {
		return 0, err
	}
	return time.Duration(first.Load() - t0.UnixNano()), nil
}

// exactStats is the exact.Stats of an exhaustive sweep's result, derived
// as exact.Distribution derives it, as JSON.
func exactStats(res *sweep.Result) ([]byte, error) {
	s := res.Sizes[0]
	st := exact.Stats{
		N:        s.N,
		Perms:    int64(s.Trials),
		WorstSum: s.WorstAvg.Sum,
		BestSum:  s.BestAvg.Sum,
		TotalSum: s.TotalSum,
		Hist:     s.Hist,
	}
	if s.Trials > 0 {
		st.MeanSum = float64(s.TotalSum) / float64(s.Trials)
	}
	return json.Marshal(st)
}

func runExact(cfg config) (*report, error) {
	n := 11
	if cfg.scale == tiny {
		n = 8
	}
	g, err := graph.NewCycle(n)
	if err != nil {
		return nil, err
	}
	spec := exactSpec(g)
	q, err := quotientOf(g)
	if err != nil {
		return nil, err
	}
	b := &batch{
		specs:    []sweep.Spec{spec},
		vertices: []int64{int64(q.Count()) * int64(n)},
		verify:   []func(graph.Graph, ids.Assignment, *local.Result) error{checkPruningRadii(cfg.corrupt)},
		leg:      exactLeg(n, spec),
		out:      exactStats,
	}
	rep := &report{}
	l, raw, err := runBatchCommon(cfg, b, rep)
	if err != nil {
		return nil, err
	}
	perms, err := ids.Factorial(n)
	if err != nil {
		return nil, err
	}
	kept := quiet(l.its, func(x iteration) float64 { return x.steal }, minIter(cfg))
	rep.add("perms_per_s", float64(perms)/medianOf(kept, func(x iteration) float64 { return x.wall2 }), "1/s")
	if err := checkExact(n, perms, l.results[0], cfg.corrupt, &rep.checks); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}
	_, _, blocks1, err := traceBatch(cfg, b, 0, 0, int(q.Count()), rep)
	if err != nil {
		return nil, err
	}
	if err := replayQuotient(cfg, rep, b, q, blocks1); err != nil {
		return nil, err
	}
	return rep, codecProbe(cfg.tr, rep, raw, &rep.checks)
}

func quotientOf(g graph.Cycle) (*ids.Quotient, error) {
	sym := g.Automorphisms()
	return ids.NewQuotient(g.N(), sym.Generators, sym.Order, sym.Full)
}

// checkExact checks the Stats exact.CycleStats returned (as JSON) against
// the identities: Perms = n! and WorstSum equals the analytic worst cycle
// sum. The verification pass has already matched them with the sweep's
// own aggregate. corrupt damages WorstSum first (smoke test only).
func checkExact(n int, perms uint64, raw []byte, corrupt bool, ck *checks) error {
	var st exact.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("decode exact.Stats: %w", err)
	}
	if corrupt {
		st.WorstSum++
	}
	worst, err := analytic.WorstCycleSum(n)
	if err != nil {
		return err
	}
	ck.check(eq(uint64(st.Perms), perms, "Stats.Perms vs n!"))
	ck.check(eq(uint64(st.WorstSum), uint64(worst), "Stats.WorstSum vs analytic.WorstCycleSum"))
	return nil
}

func eq(got, want uint64, what string) error {
	if got != want {
		return fmt.Errorf("%s: got %d, want %d", what, got, want)
	}
	return nil
}

// replayQuotient replays the canonical walk, the block-head unranks and
// the decide pass over every representative of spec, and accounts them
// against the 1-worker wall time.
func replayQuotient(cfg config, rep *report, b *batch, q *ids.Quotient, blocks []sweep.Block) error {
	n := q.N()
	g, err := graph.NewCycle(n)
	if err != nil {
		return err
	}
	reps := int64(q.Count())
	rp, err := replayMedian(func(rp *replay) error {
		if err := timeLeg1(b, rp); err != nil {
			return err
		}
		return quotientPass(cfg.tr, q, g, blocks, rp, &rep.checks)
	})
	if err != nil {
		return err
	}
	rep.addLayer("ids.walk_ns_per_rep", perUnit(rp.walk, reps, time.Nanosecond), "ns")
	rep.addLayer("ids.unrank_us_per_block", perUnit(rp.unrank, int64(len(blocks)), time.Microsecond), "us")
	rep.addLayer("ids.reps", float64(reps), "count")
	rep.addLayer("local.decide_ns_per_rep", perUnit(rp.run-rp.walk, reps, time.Nanosecond), "ns")
	rep.addLayer("graph.atlas_mib", float64(rp.atlasBytes)/(1<<20), "MiB")
	rep.addLayer("graph.vr_per_vertex", float64(rp.vr)/float64(reps*int64(n)), "count")
	addResidual(rep, rp.wall1.Seconds(), rp.run+rp.unrank)
	return nil
}

// quotientPass is one replay of the quotient layers: the full canonical
// walk (walk), CanonicalUnrankInto at each block head (unrank), and the
// walk again with Runner.Run on every representative (run).
func quotientPass(tr *tracer, q *ids.Quotient, g graph.Graph, blocks []sweep.Block, rp *replay, ck *checks) error {
	root, end := tr.open("bench.replay", 0)
	defer end(0)
	n := g.N()
	buf := make([]int, n)
	reps := int64(q.Count())
	var walked int64
	var err error
	rp.walk = timeIt(tr, "ids.Quotient.NextCanonicalInto", root, reps, func() {
		if _, err = q.CanonicalUnrankInto(buf, 0); err != nil {
			return
		}
		walked = 1
		for {
			if _, ok := q.NextCanonicalInto(buf); !ok {
				break
			}
			walked++
		}
	})
	if err != nil {
		return err
	}
	ck.check(eq(uint64(walked), uint64(reps), "canonical walk length vs Quotient.Count"))
	for _, b := range blocks {
		rp.unrank += timeIt(tr, "ids.Quotient.CanonicalUnrankInto", root, 1, func() {
			_, err = q.CanonicalUnrankInto(buf, uint64(b.T0))
		})
		if err != nil {
			return err
		}
	}
	atlas := graph.NewBallAtlas(g, graph.DefaultAtlasMemLimit)
	runner := local.NewRunner()
	runner.SetAtlas(atlas)
	opts := []local.Option{local.WithValidatedIDs()}
	rp.run = timeIt(tr, "local.Runner.Run/decide", root, reps, func() {
		if _, err = q.CanonicalUnrankInto(buf, 0); err != nil {
			return
		}
		for ok := true; ok; _, ok = q.NextCanonicalInto(buf) {
			var res *local.Result
			if res, err = runner.Run(g, buf, largestid.Pruning{}, opts...); err != nil {
				return
			}
			rp.vr += int64(res.SumRadii())
		}
	})
	rp.atlasBytes = atlas.MemUsed()
	return err
}
