package local_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms/coloring"
	"repro/internal/algorithms/largestid"
	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
)

var errMismatch = errors.New("racy run diverged from reference result")

// TestKernelMatchesViewPath is the engine half of the kernel guarantee:
// for every kernel-capable algorithm, one flat DecideAll pass produces
// byte-identical Results to the per-vertex view path (kernels forced off)
// and to the builder path (no atlas at all), across the graph zoo.
func TestKernelMatchesViewPath(t *testing.T) {
	for _, fam := range equivFamilies(t) {
		n := fam.g.N()
		atlas := graph.NewBallAtlas(fam.g, 0)
		kernelRunner := local.NewRunner()
		kernelRunner.SetAtlas(atlas)
		viewRunner := local.NewRunner()
		viewRunner.SetAtlas(atlas)
		rng := rand.New(rand.NewSource(47))
		algs := []local.ViewAlgorithm{largestid.Pruning{}, largestid.FullView{}}
		if _, isRing := fam.g.(graph.Cycle); isRing {
			algs = append(algs, coloring.Uniform{})
		}
		for trial := 0; trial < 6; trial++ {
			a := ids.Random(n, rng)
			for _, alg := range algs {
				if _, ok := alg.(local.Kernel); !ok {
					t.Fatalf("%s does not implement local.Kernel", alg.Name())
				}
				builder, err := local.RunView(fam.g, a, alg)
				if err != nil {
					t.Fatalf("%s/%s builder: %v", fam.name, alg.Name(), err)
				}
				viewPath, err := viewRunner.Run(fam.g, a, alg, local.WithoutKernels())
				if err != nil {
					t.Fatalf("%s/%s view path: %v", fam.name, alg.Name(), err)
				}
				if !sameResult(viewPath, builder) {
					t.Fatalf("%s/%s trial %d: atlas view path differs from builder", fam.name, alg.Name(), trial)
				}
				kernel, err := kernelRunner.Run(fam.g, a, alg)
				if err != nil {
					t.Fatalf("%s/%s kernel: %v", fam.name, alg.Name(), err)
				}
				if !sameResult(kernel, builder) {
					t.Fatalf("%s/%s trial %d: kernel result differs from builder", fam.name, alg.Name(), trial)
				}
			}
		}
	}
}

// TestKernelCapFallback pins the kernels' degraded mode: an atlas too small
// for the graph marks vertices unserved mid-pass and the engine reruns
// exactly those on the builder path, with identical results. Pruning runs
// on a path: on a cycle its ring branch never reads the atlas.
func TestKernelCapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, tc := range []struct {
		g   graph.Graph
		alg local.ViewAlgorithm
	}{
		{graph.MustPath(96), largestid.Pruning{}},
		{graph.MustCycle(96), largestid.FullView{}},
	} {
		alg, n := tc.alg, tc.g.N()
		atlas := graph.NewBallAtlas(tc.g, 2048) // forces mid-pass exhaustion
		runner := local.NewRunner()
		runner.SetAtlas(atlas)
		for trial := 0; trial < 4; trial++ {
			a := ids.Random(n, rng)
			want, err := local.RunView(tc.g, a, alg)
			if err != nil {
				t.Fatalf("%s builder: %v", alg.Name(), err)
			}
			got, err := runner.Run(tc.g, a, alg)
			if err != nil {
				t.Fatalf("%s capped kernel: %v", alg.Name(), err)
			}
			if !sameResult(got, want) {
				t.Fatalf("%s trial %d: capped kernel differs from builder", alg.Name(), trial)
			}
		}
		if !atlas.Exhausted() {
			t.Fatalf("%s: atlas never hit its cap; fallback path untested", alg.Name())
		}
	}
}

// TestKernelMaxRadiusError demands error parity: a vertex undecided at the
// safety cap fails identically on the kernel and view paths. The engine
// never runs with a cap below 1 (WithMaxRadius ignores it), so the cap-0
// Pruning row calls DecideAll directly and compares the ring branch with
// the skeleton loop, which both fail at radius 0.
func TestKernelMaxRadiusError(t *testing.T) {
	c := graph.MustCycle(32)
	a := ids.Identity(32)
	atlas := graph.NewBallAtlas(c, 0)
	runner := local.NewRunner()
	runner.SetAtlas(atlas)
	for _, tc := range []struct {
		alg       local.ViewAlgorithm
		maxRadius int
	}{
		{largestid.FullView{}, 2},
		{largestid.Pruning{}, 0},
		{largestid.Pruning{}, 1},
		{largestid.Pruning{}, 2},
	} {
		var kerr, verr error
		if tc.maxRadius == 0 {
			kerr = decideAllErr(t, atlas, a, tc.maxRadius)
			verr = decideAllErr(t, graph.NewBallAtlas(plainRing{c}, 0), a, tc.maxRadius)
		} else {
			_, kerr = runner.Run(c, a, tc.alg, local.WithMaxRadius(tc.maxRadius))
			_, verr = runner.Run(c, a, tc.alg, local.WithMaxRadius(tc.maxRadius), local.WithoutKernels())
		}
		if kerr == nil || verr == nil {
			t.Fatalf("%s cap %d: expected undecided errors, kernel=%v view=%v", tc.alg.Name(), tc.maxRadius, kerr, verr)
		}
		if kerr.Error() != verr.Error() {
			t.Fatalf("%s cap %d: error mismatch:\nkernel: %v\nview:   %v", tc.alg.Name(), tc.maxRadius, kerr, verr)
		}
		if want := fmt.Sprintf("after radius %d", tc.maxRadius); !strings.Contains(kerr.Error(), "undecided at vertex") || !strings.HasSuffix(kerr.Error(), want) {
			t.Fatalf("%s cap %d: unexpected error shape: %v", tc.alg.Name(), tc.maxRadius, kerr)
		}
	}
}

// decideAllErr runs Pruning's kernel directly over src with the given cap.
func decideAllErr(t *testing.T, src graph.BallSource, a ids.Assignment, maxRadius int) error {
	t.Helper()
	n := len(a)
	ok, err := largestid.Pruning{}.DecideAll(&local.KernelRun{
		Atlas:     src,
		Assign:    a,
		Outs:      make([]int, n),
		Radii:     make([]int, n),
		MaxRadius: maxRadius,
	})
	if !ok {
		t.Fatal("Pruning kernel declined a graph")
	}
	return err
}

// plainRing is a cycle under another type: the engine treats it as an
// arbitrary graph, so Pruning runs its skeleton loop on it instead of the
// ring branch.
type plainRing struct{ graph.Cycle }

// panicSource is a ball source whose Ensure panics, proving a kernel never
// touched it.
type panicSource struct{ g graph.Graph }

func (s panicSource) Graph() graph.Graph { return s.g }

func (panicSource) Ensure(int, int) *graph.AtlasBall {
	panic("ring kernel read the ball source")
}

// TestPruningRingKernelMatchesViewPath pins Pruning's ring branch to the
// view path and to its own skeleton loop, outputs and radii, on every odd
// and even cycle up to n = 40 under random, identity and reversed
// assignments.
func TestPruningRingKernelMatchesViewPath(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for n := 3; n <= 40; n++ {
		c := graph.MustCycle(n)
		ring := local.NewRunner()
		ring.SetAtlas(graph.NewBallAtlas(c, 0))
		skel := local.NewRunner()
		skel.SetAtlas(graph.NewBallAtlas(plainRing{c}, 0))
		for _, a := range []ids.Assignment{ids.Identity(n), ids.Reversed(n), ids.Random(n, rng), ids.Random(n, rng)} {
			view, err := ring.Run(c, a, largestid.Pruning{}, local.WithoutKernels())
			if err != nil {
				t.Fatalf("n=%d view path: %v", n, err)
			}
			want := &local.Result{Algorithm: view.Algorithm, Outputs: append([]int(nil), view.Outputs...), Radii: append([]int(nil), view.Radii...)}
			got, err := ring.Run(c, a, largestid.Pruning{})
			if err != nil {
				t.Fatalf("n=%d ring kernel: %v", n, err)
			}
			if !sameResult(got, want) {
				t.Fatalf("n=%d a=%v: ring kernel %v/%v, view path %v/%v", n, a, got.Outputs, got.Radii, want.Outputs, want.Radii)
			}
			got, err = skel.Run(plainRing{c}, a, largestid.Pruning{})
			if err != nil {
				t.Fatalf("n=%d skeleton kernel: %v", n, err)
			}
			if !sameResult(got, want) {
				t.Fatalf("n=%d a=%v: skeleton kernel %v/%v, view path %v/%v", n, a, got.Outputs, got.Radii, want.Outputs, want.Radii)
			}
		}
	}
}

// TestPruningRingKernelSkipsSource runs Pruning over a ball source whose
// Ensure panics: the ring branch decides from the assignment alone.
func TestPruningRingKernelSkipsSource(t *testing.T) {
	for _, n := range []int{3, 4, 31, 64} {
		c := graph.MustCycle(n)
		runner := local.NewRunner()
		runner.SetSource(panicSource{c})
		a := ids.Random(n, rand.New(rand.NewSource(int64(n))))
		got, err := runner.Run(c, a, largestid.Pruning{})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want, err := local.RunView(c, a, largestid.Pruning{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(got, want) {
			t.Fatalf("n=%d: ring kernel differs from builder", n)
		}
	}
}

// TestKernelHonoursContext checks both Pruning branches, run by the engine
// and called directly, return the context's own error once it is done.
func TestKernelHonoursContext(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	for _, ctx := range []context.Context{cancelled, expired} {
		for _, g := range []graph.Graph{graph.MustCycle(300), graph.MustPath(300)} {
			runner := local.NewRunner()
			runner.SetAtlas(graph.NewBallAtlas(g, 0))
			a := ids.Identity(300)
			if _, err := runner.Run(g, a, largestid.Pruning{}, local.WithContext(ctx)); !errors.Is(err, ctx.Err()) {
				t.Fatalf("%T engine run returned %v, want %v", g, err, ctx.Err())
			}
			ok, err := largestid.Pruning{}.DecideAll(&local.KernelRun{
				Atlas: graph.NewBallAtlas(g, 0), Assign: a,
				Outs: make([]int, 300), Radii: make([]int, 300),
				MaxRadius: 300, Ctx: ctx,
			})
			if !ok || !errors.Is(err, ctx.Err()) {
				t.Fatalf("%T direct pass returned %v, %v; want true, %v", g, ok, err, ctx.Err())
			}
		}
	}
}

// TestUniformKernelDeclinesNonRing checks that the ring-only Uniform kernel
// declines other graphs instead of mis-serving them.
func TestUniformKernelDeclinesNonRing(t *testing.T) {
	p := graph.MustPath(8)
	atlas := graph.NewBallAtlas(p, 0)
	run := &local.KernelRun{
		Atlas:     atlas,
		Assign:    ids.Identity(8),
		Outs:      make([]int, 8),
		Radii:     make([]int, 8),
		MaxRadius: 8,
	}
	ok, err := coloring.Uniform{}.DecideAll(run)
	if err != nil {
		t.Fatalf("DecideAll on path: %v", err)
	}
	if ok {
		t.Fatal("Uniform kernel served a non-ring graph")
	}
}

// TestKernelObserverUsesViewPath pins the dispatch rule: a WithProgress
// observer needs per-radius callbacks, so its runs take the view path even
// for kernel-capable algorithms — and the observer fires.
func TestKernelObserverUsesViewPath(t *testing.T) {
	c := graph.MustCycle(24)
	a := ids.Random(24, rand.New(rand.NewSource(3)))
	atlas := graph.NewBallAtlas(c, 0)
	runner := local.NewRunner()
	runner.SetAtlas(atlas)
	events := 0
	res, err := runner.Run(c, a, largestid.Pruning{}, local.WithProgress(func(local.Progress) { events++ }))
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("observer never fired: kernel path must not swallow WithProgress runs")
	}
	want, err := local.RunView(c, a, largestid.Pruning{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(res, want) {
		t.Fatal("observed run differs from builder run")
	}
}

// TestKernelSharedAtlasRace hammers one atlas from many goroutines running
// kernels concurrently (meaningful under -race): concurrent flat passes
// over a lazily growing skeleton must be safe and deterministic.
func TestKernelSharedAtlasRace(t *testing.T) {
	c := graph.MustCycle(128)
	atlas := graph.NewBallAtlas(c, 0)
	want, err := local.RunView(c, ids.Identity(128), largestid.Pruning{})
	if err != nil {
		t.Fatal(err)
	}
	workers := runtime.NumCPU() * 2
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			runner := local.NewRunner()
			runner.SetAtlas(atlas)
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 6; trial++ {
				a := ids.Random(128, rng)
				if _, err := runner.Run(c, a, largestid.Pruning{}); err != nil {
					errs <- err
					return
				}
			}
			got, err := runner.Run(c, ids.Identity(128), largestid.Pruning{})
			if err != nil {
				errs <- err
				return
			}
			if !sameResult(got, want) {
				errs <- errMismatch
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
