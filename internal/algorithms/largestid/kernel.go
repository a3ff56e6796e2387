package largestid

import (
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/problems"
)

// The flat kernels below are the Decide loops of this package collapsed
// onto flat arrays, with no View construction and no interface dispatch in
// between. On a graph.Cycle, Pruning reads the assignment directly: the
// radius-r layer around v is {v+r, v-r} mod n and the view is complete
// exactly at r = n/2, so no ball source is consulted. On every other family
// a radius step is an argmax scan over one layer window of the centre's
// skeleton Verts array plus an O(1) completeness bit. Both are
// byte-identical to the view path (see the equivalence suites in
// internal/local and internal/sweep) and exist purely for sweep throughput.

var (
	_ local.Kernel = Pruning{}
	_ local.Kernel = FullView{}
)

// DecideAll implements local.Kernel: per centre, scan each freshly revealed
// layer for an identifier beating the centre's (No at that radius), or stop
// at the first provably complete radius (Yes). Rings take pruneRing; any
// other family runs the skeleton loop, which reads nothing but the ball
// source. The layer window [lo, hi) is carried incrementally — the last
// step's end is the next step's start, exactly FrontierStartAt/SizeAt
// unrolled — because this loop is the innermost of exhaustive enumeration,
// where two accessor calls per radius step are measurable.
func (Pruning) DecideAll(run *local.KernelRun) (bool, error) {
	if ring, ok := run.Atlas.Graph().(graph.Cycle); ok {
		return true, pruneRing(run, ring.N())
	}
	atlas, assign := run.Atlas, run.Assign
	for v := range run.Radii {
		if err := run.Err(v); err != nil {
			return true, err
		}
		st := atlas.Ensure(v, 0)
		if st == nil {
			run.Radii[v] = local.KernelUnserved
			run.Unserved++
			continue
		}
		center := assign[v]
		verts, layerEnd, maxR := st.Verts, st.LayerEnd, st.MaxRadius
		r, lo := 0, 0
		for {
			hi := lo // empty window past MaxRadius (complete balls only)
			if r <= maxR {
				hi = layerEnd[r]
			}
			larger := false
			for _, w := range verts[lo:hi] {
				if assign[w] > center {
					larger = true
					break
				}
			}
			if larger {
				run.Outs[v], run.Radii[v] = problems.No, r
				break
			}
			if st.CompleteAt(r) {
				run.Outs[v], run.Radii[v] = problems.Yes, r
				break
			}
			if r >= run.MaxRadius {
				return true, run.Undecided(Pruning{}.Name(), v)
			}
			r++
			lo = hi
			if !st.Complete && r > maxR {
				if st = atlas.Ensure(v, r); st == nil {
					run.Radii[v] = local.KernelUnserved
					run.Unserved++
					break
				}
				verts, layerEnd, maxR = st.Verts, st.LayerEnd, st.MaxRadius
			}
		}
	}
	return true, nil
}

// pruneRing is Pruning on the n-cycle, decided from the assignment alone:
// the radius-r layer around v is {v+r, v-r} mod n (one vertex at the
// even-n antipode, where both indices coincide), and the radius-r view is
// complete exactly at r = n/2. The checks run in the skeleton loop's order
// — larger identifier, then completeness, then the safety cap — so radii,
// outputs and errors are the skeleton loop's, layer by layer.
func pruneRing(run *local.KernelRun, n int) error {
	assign, half := run.Assign, n/2
	for v := range run.Radii {
		if err := run.Err(v); err != nil {
			return err
		}
		center := assign[v]
		fw, bw := v, v // v+r and v-r mod n
		for r := 0; ; r++ {
			if assign[fw] > center || assign[bw] > center {
				run.Outs[v], run.Radii[v] = problems.No, r
				break
			}
			if r == half {
				run.Outs[v], run.Radii[v] = problems.Yes, r
				break
			}
			if r >= run.MaxRadius {
				return run.Undecided(Pruning{}.Name(), v)
			}
			if fw++; fw == n {
				fw = 0
			}
			if bw--; bw < 0 {
				bw = n - 1
			}
		}
	}
	return nil
}

// DecideAll implements local.Kernel: per centre, advance to the first
// complete radius (an O(1) bit per step), then answer by one max scan over
// the whole ball prefix.
func (FullView) DecideAll(run *local.KernelRun) (bool, error) {
	atlas, assign := run.Atlas, run.Assign
	for v := range run.Radii {
		if err := run.Err(v); err != nil {
			return true, err
		}
		st := atlas.Ensure(v, 0)
		if st == nil {
			run.Radii[v] = local.KernelUnserved
			run.Unserved++
			continue
		}
		r := 0
		for !st.CompleteAt(r) {
			if r >= run.MaxRadius {
				return true, run.Undecided(FullView{}.Name(), v)
			}
			r++
			if !st.Complete && r > st.MaxRadius {
				if st = atlas.Ensure(v, r); st == nil {
					break
				}
			}
		}
		if st == nil {
			run.Radii[v] = local.KernelUnserved
			run.Unserved++
			continue
		}
		center := assign[v]
		out := problems.Yes
		for _, w := range st.Verts[:st.SizeAt(r)] {
			if assign[w] > center {
				out = problems.No
				break
			}
		}
		run.Outs[v], run.Radii[v] = out, r
	}
	return true, nil
}
