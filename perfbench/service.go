package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// The service-jobs workload: one closed-loop client on one HTTP connection
// submits a fixed sequence of small E6 jobs to a serve.Coordinator running
// 2 in-process lease workers with MaxRunning 1, and waits for each table
// before submitting the next job. Every fourth submission repeats an
// earlier config: a cache hit. The store is a sweep.MemStore: on a
// virtual disk a DirStore's fsync latency depends on the disk's recent
// write history, which made job latency vary by about 20% between runs.

const pollEvery = 2 * time.Millisecond

// jobSequence is the submission sequence: distinct E6 configs with seeds
// derived from the workload seed, every fourth one a repeat of an earlier
// config chosen by the seed.
func jobSequence(cfg config) []experiments.Config {
	count, sizes, trials := 20, []int{256, 1024}, 40
	if cfg.scale == tiny {
		count, sizes, trials = 6, []int{32, 64}, 8
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var seq, fresh []experiments.Config
	for i := 0; i < count; i++ {
		if i%4 == 3 {
			seq = append(seq, fresh[rng.Intn(len(fresh))])
			continue
		}
		c := experiments.Config{Seed: cfg.seed<<16 + int64(i), Sizes: sizes, Trials: trials}
		fresh = append(fresh, c)
		seq = append(seq, c)
	}
	return seq
}

// service is one coordinator behind a loopback HTTP server.
type service struct {
	coord  *serve.Coordinator
	srv    *http.Server
	base   string
	client *http.Client
	served chan error
}

// startService builds a coordinator over a fresh in-memory store (wrapped
// by wrap when non-nil) and waits until /healthz answers 200. It returns
// the time from serve.New to that answer.
func startService(workers int, wrap func(sweep.Store) sweep.Store) (*service, time.Duration, error) {
	var st sweep.Store = sweep.NewMemStore()
	if wrap != nil {
		st = wrap(st)
	}
	t0 := time.Now()
	coord, err := serve.New(serve.Options{Store: st, Workers: workers, MaxRunning: 1})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	s := &service{
		coord:  coord,
		srv:    &http.Server{Handler: coord.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("healthz not ready after 10s: %v", err)
		}
		time.Sleep(pollEvery)
	}
}

// stop drains the coordinator, shuts the server down and waits for its
// serve loop to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.coord.Drain(ctx)
	serr := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	s.client.CloseIdleConnections()
	return errors.Join(derr, serr)
}

// do sends one request and returns the body of a 2xx answer; any other
// status is an error.
func (s *service) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// jobRun is one submission as the client saw it.
type jobRun struct {
	index            int
	key              string
	cached           bool
	submit, accepted time.Time // before POST, after its answer
	end              time.Time // table answered 200
	polls            int
	table            []byte
	span             int64
}

func (j *jobRun) latency() time.Duration { return j.end.Sub(j.submit) }

// round is one closed-loop pass over the job sequence on a fresh service.
type round struct {
	setup, wall time.Duration
	jobs        []*jobRun
	store       *timedStore // traced rounds only
}

// runRound starts a service, runs the sequence through it and stops it.
// Every request's status feeds ck. With a tracer the store is wrapped and
// every request and job is a span.
func runRound(cfg config, workers int, seq []experiments.Config, tr *tracer, ck *checks) (*round, error) {
	var (
		spanMu sync.Mutex
		spans  = map[string]int64{}
	)
	jobSpan := func(job string) int64 {
		spanMu.Lock()
		defer spanMu.Unlock()
		return spans[job]
	}
	r := &round{}
	var wrap func(sweep.Store) sweep.Store
	if tr != nil {
		wrap = func(st sweep.Store) sweep.Store {
			r.store = newTimedStore(st, tr, jobSpan)
			return r.store
		}
	}
	svc, setup, err := startService(workers, wrap)
	if err != nil {
		return nil, err
	}
	r.setup = setup
	seen := map[string]bool{}
	t0 := time.Now()
	for i, c := range seq {
		body, err := json.Marshal(map[string]any{"experiment": "E6", "config": c})
		if err != nil {
			return nil, err
		}
		key := experiments.JobKey(e6, c)
		j := &jobRun{index: i, key: key, cached: seen[key]}
		seen[key] = true
		id, end := tr.open("serve.job", 0)
		j.span = id
		spanMu.Lock()
		spans[key] = id
		spanMu.Unlock()
		j.submit = time.Now()
		err = j.run(svc, body, tr, ck)
		j.end = time.Now()
		end(1)
		if err != nil {
			err = fmt.Errorf("job %d (%s): %w", i, key, err)
		}
		ck.check(err)
		if err == nil {
			r.jobs = append(r.jobs, j)
		}
	}
	r.wall = time.Since(t0)
	if err := svc.stop(); err != nil {
		return nil, fmt.Errorf("stop service: %w", err)
	}
	return r, nil
}

var e6 = func() experiments.Experiment {
	e, err := experiments.Get("E6")
	if err != nil {
		panic(err)
	}
	return e
}()

// run submits the job, polls its status until it is done and fetches its
// table. A failed (parked) job is an error.
func (j *jobRun) run(svc *service, body []byte, tr *tracer, ck *checks) error {
	call := func(name, method, path string, body []byte) ([]byte, error) {
		t0 := time.Now()
		out, err := svc.do(method, path, body)
		tr.recordTrace(name, j.key, j.span, t0, time.Now(), 1)
		ck.check(err)
		return out, err
	}
	out, err := call("serve.http.submit", "POST", "/jobs", body)
	j.accepted = time.Now()
	if err != nil {
		return err
	}
	var st serve.JobStatus
	for {
		if err := json.Unmarshal(out, &st); err != nil {
			return fmt.Errorf("decode job status: %w", err)
		}
		if st.ID != j.key {
			return fmt.Errorf("job id %q, want %q", st.ID, j.key)
		}
		if st.State == serve.StateDone {
			break
		}
		if st.State == serve.StateFailed {
			return fmt.Errorf("job parked: %s", st.Error)
		}
		time.Sleep(pollEvery)
		j.polls++
		if out, err = call("serve.http.status", "GET", "/jobs/"+j.key, nil); err != nil {
			return err
		}
	}
	j.table, err = call("serve.http.table", "GET", "/jobs/"+j.key+"/table", nil)
	return err
}

// renderer renders E6 tables in-process, once per config, as avgbench
// prints them: the reference every served table must equal.
type renderer map[string][]byte

func (rd renderer) want(c experiments.Config) ([]byte, error) {
	key := experiments.JobKey(e6, c)
	if b, ok := rd[key]; ok {
		return b, nil
	}
	tab, err := e6.Run(context.Background(), c)
	if err != nil {
		return nil, fmt.Errorf("render E6 in-process: %w", err)
	}
	b := []byte(fmt.Sprintf("== %s: %s\n   claim: %s\n%s\n", e6.ID, e6.Title, e6.Claim, tab.Render()))
	rd[key] = b
	return b, nil
}

// checkTables compares every served table with the in-process render.
// corrupt damages the first served table (smoke test only).
func checkTables(r *round, seq []experiments.Config, rd renderer, corrupt bool, ck *checks) error {
	for _, j := range r.jobs {
		want, err := rd.want(seq[j.index])
		if err != nil {
			return err
		}
		got := j.table
		if corrupt && j == r.jobs[0] {
			got = append([]byte("x"), got...)
		}
		ck.check(sameBytes(got, want, "served table of job %d", j.index))
	}
	return nil
}

// latencies splits a round's job latencies into uncached and cached.
func (r *round) latencies() (uncached, cached []float64) {
	for _, j := range r.jobs {
		if j.cached {
			cached = append(cached, j.latency().Seconds())
		} else {
			uncached = append(uncached, j.latency().Seconds())
		}
	}
	return uncached, cached
}

// decided is the number of vertices the round's uncached jobs decided.
func (r *round) decided(seq []experiments.Config) int64 {
	var v int64
	for _, j := range r.jobs {
		if !j.cached {
			c := seq[j.index]
			v += sumInts(c.Sizes) * int64(c.Trials)
		}
	}
	return v
}

// serviceIter is one pass of the timed loop: a round with 2 lease workers
// and one with 1.
type serviceIter struct {
	setups []float64
	// uncached latencies with 2 and 1 workers, cached ones with 2, and the
	// first and last tenth of the 2-worker uncached ones
	lat2, lat1, cached, first, last []float64
	wall                            time.Duration // of the 2-worker round
	rate                            float64       // its decided vertices per second
	jobs                            int           // its completed submissions
	steal                           float64       // CPU share the hypervisor took
}

func runService(cfg config) (*report, error) {
	seq := jobSequence(cfg)
	rd := renderer{}
	rep := &report{}
	ck := &rep.checks

	// Standalone set-ups: the service's set-up is milliseconds, so the run
	// measures many and reports the median.
	var setups []float64
	for i := 0; i < 10; i++ {
		svc, d, err := startService(2, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if err := svc.stop(); err != nil {
			return nil, err
		}
	}

	var its []serviceIter
	rss := startRSS()
	defer rss.close()
	start := time.Now()
	for it := 0; it < minIter(cfg) || time.Since(start) < cfg.budget; it++ {
		h0, err := readTicks()
		if err != nil {
			return nil, err
		}
		var x serviceIter
		for _, workers := range []int{2, 1} {
			settle()
			r, err := runRound(cfg, workers, seq, nil, ck)
			if err != nil {
				return nil, err
			}
			if err := checkTables(r, seq, rd, cfg.corrupt, ck); err != nil {
				return nil, err
			}
			x.setups = append(x.setups, r.setup.Seconds())
			un, ca := r.latencies()
			if workers == 1 {
				x.lat1 = un
				continue
			}
			x.lat2, x.cached = un, ca
			if tenth := len(un) / 10; tenth > 0 {
				x.first, x.last = un[:tenth], un[len(un)-tenth:]
			}
			x.wall = r.wall
			x.rate = float64(r.decided(seq)) / r.wall.Seconds()
			x.jobs = len(r.jobs)
		}
		h1, err := readTicks()
		if err != nil {
			return nil, err
		}
		x.steal = h1.stealSince(h0)
		its = append(its, x)
	}
	peak := rss.peakMiB()

	// Pool the iterations the host did not contend (see quiet).
	kept := quiet(its, func(x serviceIter) float64 { return x.steal }, minIter(cfg))
	var (
		lat2, lat1, cached, growthFirst, growthLast, rates []float64
		wall2                                              time.Duration
		submissions                                        int
	)
	for _, x := range kept {
		setups = append(setups, x.setups...)
		lat2, lat1, cached = append(lat2, x.lat2...), append(lat1, x.lat1...), append(cached, x.cached...)
		growthFirst, growthLast = append(growthFirst, x.first...), append(growthLast, x.last...)
		rates = append(rates, x.rate)
		wall2 += x.wall
		submissions += x.jobs
	}
	if len(lat2) == 0 || len(lat1) == 0 {
		return nil, fmt.Errorf("no uncached job completed")
	}
	p50 := median(lat2)
	tailV, tailP := tail(lat2)
	rep.add("setup_s", median(setups), "s")
	rep.add("wall_s", p50, "s")
	rep.add("vertices_per_s", median(rates), "1/s")
	rep.add("speedup_2w", median(lat1)/p50, "ratio")
	rep.add("job_p50_s", p50, "s")
	rep.add("job_tail_s", tailV, "s")
	rep.add("job_tail_percentile", tailP, "%")
	rep.add("job_samples", float64(len(lat2)), "count")
	rep.add("cached_p50_s", median(cached), "s")
	rep.add("jobs_per_s", float64(submissions)/wall2.Seconds(), "1/s")
	rep.add("latency_growth", median(growthLast)/median(growthFirst), "ratio")
	rep.add("peak_rss_mib", peak, "MiB")
	rep.add("rounds", float64(len(its)), "count")
	rep.add("median_rounds", float64(len(kept)), "count")
	if err := addHWM(rep); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}
	return rep, traceService(cfg, seq, rd, rep)
}

// traceService runs tracePairs pairs of rounds, untraced then traced,
// derives the store, lease and serve metrics from the first traced round,
// and replays the layers on the jobs' own inputs.
func traceService(cfg config, seq []experiments.Config, rd renderer, rep *report) error {
	ck := &rep.checks
	var first *round
	var ratios []float64
	for pair := 0; pair < tracePairs; pair++ {
		plain, err := runRound(cfg, 2, seq, nil, ck)
		if err != nil {
			return err
		}
		traced, err := runRound(cfg, 2, seq, cfg.tr, ck)
		if err != nil {
			return err
		}
		for _, r := range []*round{plain, traced} {
			if err := checkTables(r, seq, rd, false, ck); err != nil {
				return err
			}
		}
		ratios = append(ratios, traced.wall.Seconds()/plain.wall.Seconds())
		if first == nil {
			first = traced
		}
	}
	rep.addLayer("trace.overhead_share", median(ratios)-1, "ratio")
	if err := storeLayers(first, rep, ck); err != nil {
		return err
	}

	// The jobs' own inputs through the graph, ids, local and codec layers:
	// the first config's E6 sweep, run in-process.
	specs, err := e6.Sweeps(seq[0])
	if err != nil {
		return err
	}
	spec := specs[0]
	spec.AtlasMemLimit = graph.DefaultAtlasMemLimit
	caps, blocks, _, err := tracedPass(cfg.tr, spec, 2, 4, spec.Trials)
	if err != nil {
		return err
	}
	rp, err := replayMedian(func(rp *replay) error {
		grown, err := replayGrowth(cfg.tr, spec, caps, rp)
		if err != nil {
			return err
		}
		return replayBallSource(cfg.tr, spec, caps, grown, "local.Runner.Run/kernel", rp, ck)
	})
	if err != nil {
		return err
	}
	addReplayLayers(rep, rp, false)
	rep.addLayer("graph.vr_per_vertex", float64(rp.vr)/float64(rp.vertices), "count")
	rep.addLayer("sweep.blocks", float64(len(blocks)), "count")
	results, err := experiments.RunSweeps(context.Background(), e6, seq[0], sweep.Shard{}, "")
	if err != nil {
		return err
	}
	raw, err := encode(results[0])
	if err != nil {
		return err
	}
	return codecProbe(cfg.tr, rep, raw, ck)
}

// storeLayers derives the store, lease and serve metrics of a traced
// round from its store calls and client spans. Each uncached job's latency
// splits at its first store Put and its last done/ Put into three phases;
// being differences of one monotonic clock they sum to the latency by
// construction, so the check is that the four instants are in order.
func storeLayers(r *round, rep *report, ck *checks) error {
	ops := r.store.snapshot()
	var uncached []*jobRun
	for _, j := range r.jobs {
		if !j.cached {
			uncached = append(uncached, j)
		}
	}
	nj := float64(len(uncached))
	if nj == 0 {
		return fmt.Errorf("traced round completed no uncached job")
	}
	count := map[string]int{}
	durs := map[string][]float64{}
	var busy time.Duration
	var returned, objects, errs, leasePuts, donePuts int
	donePutsByName := map[string]int{}
	firstPut := map[string]time.Time{}
	lastDone := map[string]time.Time{}
	for _, o := range ops {
		count[o.op]++
		d := o.end.Sub(o.start)
		durs[o.op] = append(durs[o.op], float64(d)/float64(time.Millisecond))
		busy += d
		if o.failed {
			errs++
		}
		if o.op == "List" {
			returned += o.returned
			objects += o.objects
		}
		if o.op != "Put" {
			continue
		}
		if t, ok := firstPut[o.job]; !ok || o.start.Before(t) {
			firstPut[o.job] = o.start
		}
		switch o.kind {
		case "lease":
			leasePuts++
		case "done":
			donePuts++
			donePutsByName[o.name]++
			if o.end.After(lastDone[o.job]) {
				lastDone[o.job] = o.end
			}
		}
	}
	dups := 0
	for _, c := range donePutsByName {
		dups += c - 1
	}
	rep.addLayer("sweep.store.put_per_job", float64(count["Put"])/nj, "count")
	rep.addLayer("sweep.store.get_per_job", float64(count["Get"])/nj, "count")
	rep.addLayer("sweep.store.list_per_job", float64(count["List"])/nj, "count")
	rep.addLayer("sweep.store.delete_per_job", float64(count["Delete"])/nj, "count")
	rep.addLayer("sweep.store.put_ms", median(durs["Put"]), "ms")
	rep.addLayer("sweep.store.get_ms", median(durs["Get"]), "ms")
	rep.addLayer("sweep.store.list_ms", median(durs["List"]), "ms")
	rep.addLayer("sweep.store.list_yield", float64(returned)/float64(max(objects, 1)), "ratio")
	rep.addLayer("sweep.store.busy_share", busy.Seconds()/r.wall.Seconds(), "ratio")
	rep.addLayer("sweep.store.errors", float64(errs), "count")
	rep.addLayer("sweep.lease.lease_puts_per_job", float64(leasePuts)/nj, "count")
	rep.addLayer("sweep.lease.done_puts_per_job", float64(donePuts)/nj, "count")
	rep.addLayer("sweep.lease.duplicate_share", float64(dups)/float64(max(len(donePutsByName), 1)), "ratio")

	var submit, startDelay, execute, finish []float64
	var polls int
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, j := range uncached {
		fp, okF := firstPut[j.key]
		ld, okD := lastDone[j.key]
		if !okF || !okD {
			ck.check(fmt.Errorf("job %d: no store Put under its key", j.index))
			continue
		}
		a, b, c := fp.Sub(j.submit), ld.Sub(fp), j.end.Sub(ld)
		if a < 0 || b < 0 || c < 0 {
			ck.check(fmt.Errorf("job %d: submit, first Put, last done/ Put and table are out of order (phases %v, %v, %v)", j.index, a, b, c))
			continue
		}
		ck.check(nil)
		submit = append(submit, ms(j.accepted.Sub(j.submit)))
		startDelay = append(startDelay, ms(a))
		execute = append(execute, ms(b))
		finish = append(finish, ms(c))
		polls += j.polls
	}
	rep.addLayer("serve.http.submit_ms", median(submit), "ms")
	rep.addLayer("serve.start_delay_ms", median(startDelay), "ms")
	rep.addLayer("serve.execute_ms", median(execute), "ms")
	rep.addLayer("serve.finish_ms", median(finish), "ms")
	rep.addLayer("serve.table_polls_per_job", float64(polls)/nj, "count")
	return nil
}
