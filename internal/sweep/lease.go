package sweep

// Work-stealing grain leases over a Store: the engine's one way to split a
// trial space across executors and to make progress durable. Executors
// lease variable-size, grain-aligned trial ranges out of the plan's
// uncovered space (the Done-complement subtractRanges computes), execute
// them one grain at a time through the ordinary engine, and publish an
// immutable per-grain completion record after each grain. Fast workers
// drain the free pool, then steal the tail half of the largest straggler
// lease, then speculatively re-execute live stragglers — so heterogeneous
// workers finish together instead of waiting on the slowest static slice.
// LeaseOptions.Static degrades the schedule to a fixed i-of-m slice per
// executor.
//
// Safety never rests on mutual exclusion. Every grain's aggregate is a
// deterministic function of the plan and the grain's coordinates alone, so
// two workers racing on one grain publish byte-identical records and the
// first write wins; a lost lease, a duplicated completion or a crashed
// worker only ever duplicates work. The merge (CollectLeased) folds one
// record per grain in ascending trial order — bit-identical to a single
// uninterrupted run — and rejects anything else: overlapping ranges are a
// typed *OverlapError (double-counting), gaps a typed *IncompleteError,
// and torn or foreign records fail decoding with the codec's *DecodeError.
//
// Liveness uses heartbeats, not wall-clock: a lease whose Beat counter
// stays frozen across eight of an observer's scans is expired and its
// remainder returns to the free pool. False expiry is safe (it
// only duplicates), so the protocol needs no clock agreement between
// workers — which also keeps the chaos suite deterministic and shrinkable.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"time"
)

// Lease is one executor's mutable claim record: the grain-aligned trial
// range it intends to execute, its progress cursor, a heartbeat counter,
// and the fencing token steals are ordered by. Stored at
// <run>/lease/<worker> and rewritten after every grain.
type Lease struct {
	// PlanSum fingerprints the plan this claim belongs to; records with a
	// foreign sum are ignored by scans.
	PlanSum uint64 `json:"plansum"`
	// Worker is the claiming executor's id.
	Worker string `json:"worker"`
	// SizeIdx, T0, T1 locate the claimed range in the plan's trial space.
	SizeIdx int `json:"size"`
	T0      int `json:"t0"`
	T1      int `json:"t1"`
	// Next is the first trial not yet executed: [T0, Next) is published as
	// completions, [Next, T1) is the remainder a thief may take.
	Next int `json:"next"`
	// Beat increments after every grain — the liveness signal expiry
	// watches.
	Beat int64 `json:"beat"`
	// Seq is the claim's fencing token: a steal writes a higher Seq, and
	// the victim cedes any tail a higher-Seq lease overlaps.
	Seq int64 `json:"seq"`
}

// Completion is the immutable per-grain result record: the block
// coordinate plus the aggregate of exactly its trials. Stored at
// <run>/done/<size>-<t0>; duplicates of one grain are byte-identical in
// every field except Worker, which is why Worker is excluded from the
// merge's equality reasoning.
type Completion struct {
	PlanSum uint64 `json:"plansum"`
	Worker  string `json:"worker"`
	Block   Block  `json:"block"`
	// Weight is the per-trial fold weight of the block's aggregate: the
	// orbit size under a quotient plan, omitted (meaning 1) otherwise.
	// Scans treat a record whose weight disagrees with the plan's as
	// foreign — its aggregate covers a different mass.
	Weight int64     `json:"weight,omitempty"`
	Stats  SizeStats `json:"stats"`
}

// normWeight maps the wire encoding (0 = field omitted = weight 1) to the
// effective fold weight.
func normWeight(w int64) int64 {
	if w == 0 {
		return 1
	}
	return w
}

// leasePlan is the run's identity record at <run>/plan: cooperating
// executors must agree on the plan AND the grain schedule, or their
// completion ranges would not tile.
type leasePlan struct {
	Plan   Plan `json:"plan"`
	Grains int  `json:"grains"`
}

// EncodeLease serializes a claim record with the shared versioned envelope.
func EncodeLease(w io.Writer, l *Lease) error {
	return EncodeFile(w, FormatLease, l)
}

// DecodeLease reads a claim record and validates its internal structure;
// forged or truncated input fails with a typed *DecodeError, never a panic.
func DecodeLease(r io.Reader) (*Lease, error) {
	l := &Lease{}
	if err := DecodeFile(r, FormatLease, l); err != nil {
		return nil, err
	}
	reject := func(reason string) (*Lease, error) {
		return nil, &DecodeError{Format: FormatLease, Reason: reason}
	}
	if l.Worker == "" {
		return reject("missing worker id")
	}
	if l.SizeIdx < 0 {
		return reject(fmt.Sprintf("negative size index %d", l.SizeIdx))
	}
	if l.T0 < 0 || l.T0 >= l.T1 {
		return reject(fmt.Sprintf("invalid claim range [%d,%d)", l.T0, l.T1))
	}
	if l.Next < l.T0 || l.Next > l.T1 {
		return reject(fmt.Sprintf("cursor %d outside claim [%d,%d]", l.Next, l.T0, l.T1))
	}
	if l.Beat < 0 {
		return reject(fmt.Sprintf("negative heartbeat %d", l.Beat))
	}
	return l, nil
}

// EncodeCompletion serializes a completion record.
func EncodeCompletion(w io.Writer, c *Completion) error {
	return EncodeFile(w, FormatCompletion, c)
}

// DecodeCompletion reads a completion record and validates it: the block
// range must be sane, and the aggregate must cover exactly the block's
// trials and satisfy the codec invariants. Failures are *DecodeError.
func DecodeCompletion(r io.Reader) (*Completion, error) {
	c := &Completion{}
	if err := DecodeFile(r, FormatCompletion, c); err != nil {
		return nil, err
	}
	reject := func(reason string) (*Completion, error) {
		return nil, &DecodeError{Format: FormatCompletion, Reason: reason}
	}
	if c.Block.SizeIdx < 0 {
		return reject(fmt.Sprintf("negative size index %d", c.Block.SizeIdx))
	}
	if c.Block.T0 < 0 || c.Block.T0 >= c.Block.T1 {
		return reject(fmt.Sprintf("invalid block range [%d,%d)", c.Block.T0, c.Block.T1))
	}
	if c.Stats.N <= 0 {
		return reject(fmt.Sprintf("aggregate for impossible size n=%d", c.Stats.N))
	}
	if c.Weight < 0 {
		return reject(fmt.Sprintf("negative fold weight %d", c.Weight))
	}
	// The aggregate owes (T1-T0)·weight trials. The weight is untrusted
	// input, so the multiply is overflow-guarded by division.
	w := normWeight(c.Weight)
	span := int64(c.Block.T1 - c.Block.T0)
	if w > math.MaxInt64/span {
		return reject(fmt.Sprintf("weighted trial count of block [%d,%d) × %d overflows",
			c.Block.T0, c.Block.T1, w))
	}
	if got, want := int64(c.Stats.Trials), span*w; got != want {
		return reject(fmt.Sprintf("aggregate carries %d trials, block [%d,%d) × weight %d owes %d",
			got, c.Block.T0, c.Block.T1, w, want))
	}
	if err := validateSizes([]SizeStats{c.Stats}, FormatCompletion); err != nil {
		return nil, err
	}
	return c, nil
}

// OverlapError reports two trial ranges claiming the same trials — merging
// them would double-count. It is the typed rejection of the first-write-
// wins precondition, raised by CollectLeased.
type OverlapError struct {
	// N is the instance size whose trial space collided.
	N int
	// A and B are the colliding ranges.
	A, B TrialRange
	// Key names the offending completion record in the store (range B's).
	Key string
}

func (e *OverlapError) Error() string {
	msg := fmt.Sprintf("sweep: n=%d: trial range [%d,%d) overlaps [%d,%d); merging would double-count trials",
		e.N, e.A.T0, e.A.T1, e.B.T0, e.B.T1)
	if e.Key != "" {
		msg += fmt.Sprintf(" (offending record %q)", e.Key)
	}
	return msg
}

// IncompleteError reports a collect over a store that does not yet cover
// the plan's whole trial space.
type IncompleteError struct {
	// N is the first instance size with uncovered trials.
	N int
	// Missing lists its uncovered ranges, ascending.
	Missing []TrialRange
	// Prefix is the store namespace of the run whose records left the gap.
	Prefix string
}

func (e *IncompleteError) Error() string {
	msg := fmt.Sprintf("sweep: n=%d: trial ranges %v not yet completed", e.N, e.Missing)
	if e.Prefix != "" {
		msg += fmt.Sprintf(" (run %q)", e.Prefix)
	}
	return msg
}

// LeaseOptions tunes one executor's participation in a lease run.
type LeaseOptions struct {
	// Prefix is the run's namespace inside the store (default "leaserun").
	// Executors sharing a prefix cooperate on one plan.
	Prefix string
	// Worker is this executor's unique id (required; store-name-safe).
	Worker string
	// GrainsPerSize is the target number of grains each size's trial space
	// is quantized into (default 16). All executors of a run must agree —
	// the run's plan record enforces it.
	GrainsPerSize int
	// Retry is the executor's one pacing policy: it spaces the retries of a
	// transiently faulting store operation and the idle rescans while no
	// work is claimable, so consecutive idle scans back off instead of
	// hammering the store. Unset fields default to a 25ms Base, an 8×Base
	// Max and ×1.5 growth, with jitter seeded from the worker id so replays
	// stay deterministic.
	Retry Backoff
	// StoreRetries bounds the backed-off retries one store operation gets
	// before the executor gives up on it (default 2). RunLeased retries its
	// own operations, so pass it an unwrapped store. A completion write
	// that still fails leaves its grain uncovered for any executor to
	// redo; a scan that still fails ends the run with a *WorkerError.
	StoreRetries int
	// Static degrades the executor to the classic i-of-m schedule: it
	// claims exactly the grains whose start falls in this shard's slice,
	// never steals, and exits when ITS slice is covered rather than the
	// whole space. The zero value is the dynamic work-stealing schedule.
	Static Shard
	// Throttle, when set, runs before every grain execution — the test
	// hook unequal-speed soak workers and chaos kills are built on.
	Throttle func(b Block)

	// Schedule knobs only the protocol tests set (zero: RunLeased's
	// default): the scans a frozen heartbeat survives before its lease is
	// adopted; the idle scans before a live straggler is re-run.
	expireScans, speculateScans int
}

// maxLeaseGrains is the grains one free-pool claim takes, so the tail
// stays stealable.
const maxLeaseGrains = 4

// defaultPacing fills the unset retry and pacing fields with RunLeased's
// defaults.
func (o *LeaseOptions) defaultPacing() {
	if o.Retry.Base <= 0 {
		o.Retry.Base = 25 * time.Millisecond
	}
	if o.Retry.Max <= 0 {
		o.Retry.Max = 8 * o.Retry.Base
	}
	// The pacing policy jitters on a stream seeded from the worker id:
	// deterministic per worker, decorrelated across a fleet.
	if o.Retry.Seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(o.Worker))
		o.Retry.Seed = h.Sum64()
	}
	if o.Retry.Factor == 0 {
		o.Retry.Factor = 1.5
	}
	if o.StoreRetries <= 0 {
		o.StoreRetries = 2
	}
}

// RetryingStore wraps st in RunLeased's own store retry policy (defaulted
// opts.StoreRetries and opts.Retry) for the records a caller keeps beside
// a leased run, such as an experiment's manifest. Pass RunLeased itself
// the unwrapped store, or the two budgets multiply.
func RetryingStore(ctx context.Context, st Store, opts LeaseOptions) Store {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.defaultPacing()
	return &retryStore{inner: st, ctx: ctx, retries: opts.StoreRetries, backoff: opts.Retry}
}

// LeaseStats summarises one executor's participation.
type LeaseStats struct {
	// Grains counts grain executions, including speculative duplicates.
	Grains int
	// Duplicates counts grains skipped because a valid completion already
	// existed when this executor reached them.
	Duplicates int
	// Claims counts fresh leases taken from the free pool.
	Claims int
	// Steals counts straggler tails taken from live leases.
	Steals int
	// Adopted counts expired leases whose remainder this executor took.
	Adopted int
	// Speculated counts live stragglers re-executed speculatively.
	Speculated int
}

// Add folds another executor's stats into s.
func (s *LeaseStats) Add(o LeaseStats) {
	s.Grains += o.Grains
	s.Duplicates += o.Duplicates
	s.Claims += o.Claims
	s.Steals += o.Steals
	s.Adopted += o.Adopted
	s.Speculated += o.Speculated
}

// WorkerError attributes a leased executor's failure to its worker id —
// the unit a supervisor (internal/serve) restarts and counts toward its
// circuit breaker. Everything RunLeased fails with after option validation
// is wrapped in one; Unwrap keeps errors.Is/As working on the cause
// (context.Canceled, fs.ErrNotExist, ...).
type WorkerError struct {
	// Worker is the failing executor's id.
	Worker string
	// Err is the underlying failure.
	Err error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("sweep: worker %s: %v", e.Worker, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// planSum fingerprints a plan for cheap foreign-record rejection. It is
// not a security boundary — the codec's structural validation is — just a
// guard against honest cross-run mixups. The hashed JSON still ends with
// the always-zero "shard" member plans once carried, so every fingerprint,
// and with it every completion record already in a store, stays valid.
func planSum(p Plan) uint64 {
	raw, err := json.Marshal(struct {
		Plan
		Shard Shard `json:"shard"`
	}{Plan: p})
	if err != nil {
		// A Plan is plain ints and bools; Marshal cannot fail on it.
		panic(fmt.Sprintf("sweep: marshal plan: %v", err))
	}
	h := fnv.New64a()
	h.Write(raw)
	return h.Sum64()
}

// Store layout helpers.
func leasePlanKey(prefix string) string { return prefix + "/plan" }
func leaseKey(prefix, worker string) string {
	return prefix + "/lease/" + worker
}
func completionKey(prefix string, b Block) string {
	return fmt.Sprintf("%s/done/%d-%d", prefix, b.SizeIdx, b.T0)
}

// grainSize quantizes one size's trial count into about grains pieces.
func grainSize(count, grains int) int {
	g := (count + grains - 1) / grains
	if g < 1 {
		g = 1
	}
	return g
}

// alignUp rounds t up to the next grain boundary.
func alignUp(t, grain int) int {
	return ((t + grain - 1) / grain) * grain
}

// insertRange adds r to an ascending non-overlapping range list, merging
// with adjacent or overlapping neighbours.
func insertRange(ranges []TrialRange, r TrialRange) []TrialRange {
	at := len(ranges)
	for i, x := range ranges {
		if r.T0 <= x.T1 {
			at = i
			break
		}
	}
	// Absorb every range that touches [r.T0, r.T1).
	end := at
	for end < len(ranges) && ranges[end].T0 <= r.T1 {
		if ranges[end].T0 < r.T0 {
			r.T0 = ranges[end].T0
		}
		if ranges[end].T1 > r.T1 {
			r.T1 = ranges[end].T1
		}
		end++
	}
	out := append(ranges[:at:at], r)
	return append(out, ranges[end:]...)
}

// ensureLeasePlan anchors the run's identity in the store: the first
// executor writes the plan+grain record, later ones must present an equal
// one. A torn existing record is overwritten (it decodes to nothing).
func ensureLeasePlan(st Store, prefix string, lp *leasePlan) error {
	key := leasePlanKey(prefix)
	if data, err := st.Get(key); err == nil {
		existing := &leasePlan{}
		if derr := DecodeFile(bytes.NewReader(data), FormatLeasePlan, existing); derr == nil {
			if !existing.Plan.Equal(lp.Plan) || existing.Grains != lp.Grains {
				return fmt.Errorf("sweep: lease run %q was planned differently (plan or grain schedule mismatch)", prefix)
			}
			return nil
		}
	}
	var buf bytes.Buffer
	if err := EncodeFile(&buf, FormatLeasePlan, lp); err != nil {
		return err
	}
	if err := st.Put(key, buf.Bytes()); err != nil {
		return fmt.Errorf("sweep: write lease plan: %w", err)
	}
	return nil
}

// scanState is one snapshot of the run: which trials are covered by valid
// completions, which claims are live, and the highest fencing token seen.
type scanState struct {
	coverage [][]TrialRange
	leases   map[string]*Lease
	maxSeq   int64
}

// leaseScanner is the one reader of a run's lease and completion records.
// It caches accepted completions by name (they are immutable once valid),
// so repeated scans decode each completion once.
type leaseScanner struct {
	st      Store
	prefix  string
	plan    Plan
	sum     uint64
	counts  []int
	weights []int
	comps   map[string]*Completion
}

// newLeaseScanner watches the run at prefix; counts must be plan.Counts().
func newLeaseScanner(st Store, prefix string, plan Plan, counts []int) *leaseScanner {
	ws := make([]int, len(plan.Sizes))
	for i := range ws {
		ws[i] = plan.Weight(i)
	}
	return &leaseScanner{st: st, prefix: prefix, plan: plan, sum: planSum(plan),
		counts: counts, weights: ws, comps: make(map[string]*Completion)}
}

// accepts is the one test a decoded completion must pass to count for the
// run: scans cover its range with it, executors never overwrite it, and
// CollectLeased folds it. It rejects a foreign plan, a block outside the
// plan's trial space, an aggregate of another size, or a fold weight the
// plan does not use. A rejected record reads as absent, so some executor
// re-runs its grain and overwrites it.
func (s *leaseScanner) accepts(c *Completion) bool {
	i := c.Block.SizeIdx
	return c.PlanSum == s.sum && i < len(s.counts) && c.Block.T1 <= s.counts[i] &&
		c.Stats.N == s.plan.Sizes[i] && normWeight(c.Weight) == int64(s.weights[i])
}

// load returns the accepted completion record stored at name, or nil when
// it is missing, torn, forged or foreign: absent until some executor
// overwrites it.
func (s *leaseScanner) load(name string) *Completion {
	if c, ok := s.comps[name]; ok {
		return c
	}
	data, err := s.st.Get(name)
	if err != nil {
		return nil
	}
	c, err := DecodeCompletion(bytes.NewReader(data))
	if err != nil || !s.accepts(c) {
		return nil
	}
	s.comps[name] = c
	return c
}

// completions lists the run's completion records and returns every
// accepted one, keyed by store name.
func (s *leaseScanner) completions() (map[string]*Completion, error) {
	names, err := s.st.List(s.prefix + "/done/")
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		s.load(name)
	}
	return s.comps, nil
}

// leases returns the run's valid claim records, keyed by worker, without
// reading worker skip's own record (empty: read all). Torn, foreign or
// out-of-plan records read as absent.
func (s *leaseScanner) leases(skip string) (map[string]*Lease, error) {
	names, err := s.st.List(s.prefix + "/lease/")
	if err != nil {
		return nil, err
	}
	ls := make(map[string]*Lease, len(names))
	for _, name := range names {
		if skip != "" && name == leaseKey(s.prefix, skip) {
			continue
		}
		data, err := s.st.Get(name)
		if err != nil {
			continue
		}
		l, err := DecodeLease(bytes.NewReader(data))
		if err != nil || l.PlanSum != s.sum || l.SizeIdx >= len(s.counts) ||
			l.T1 > s.counts[l.SizeIdx] {
			continue
		}
		ls[l.Worker] = l
	}
	return ls, nil
}

func (s *leaseScanner) scan() (*scanState, error) {
	comps, err := s.completions()
	if err != nil {
		return nil, err
	}
	sc := &scanState{coverage: make([][]TrialRange, len(s.counts))}
	for _, c := range comps {
		sc.coverage[c.Block.SizeIdx] = insertRange(sc.coverage[c.Block.SizeIdx],
			TrialRange{T0: c.Block.T0, T1: c.Block.T1})
	}
	if sc.leases, err = s.leases(""); err != nil {
		return nil, err
	}
	for _, l := range sc.leases {
		sc.maxSeq = max(sc.maxSeq, l.Seq)
	}
	return sc, nil
}

// covered reports whether the coalesced ascending range list contains
// [r.T0, r.T1) entirely.
func covered(ranges []TrialRange, r TrialRange) bool {
	if r.T0 >= r.T1 {
		return true
	}
	for _, x := range ranges {
		if x.T0 <= r.T0 && r.T1 <= x.T1 {
			return true
		}
	}
	return false
}

// claimKind classifies how a claim was obtained, for stats accounting.
type claimKind int

const (
	claimFresh claimKind = iota
	claimSteal
	claimAdopt
	claimSpec
)

// leaseRunner is one RunLeased invocation's working state.
type leaseRunner struct {
	spec    Spec
	st      Store
	opts    LeaseOptions
	prefix  string
	counts  []int
	grain   []int        // grain size per size index
	target  []TrialRange // this worker's target range per size
	order   []int        // size indices, largest instance first
	stats   LeaseStats
	scanner *leaseScanner
}

// RunLeased executes the spec's plan as one cooperating lease executor
// against the store and returns this executor's participation stats. The
// call returns when the executor's target is fully covered by valid
// completion records — the whole trial space for the dynamic schedule, or
// this shard's grains under Static — from any combination of workers.
// Merge the records with CollectLeased; the result is byte-identical to a
// single uninterrupted Run of the same spec. Every store operation it
// makes is retried under opts.Retry, at most opts.StoreRetries times.
//
// The spec must leave Done and OnBlock unset: the lease schedule
// owns the trial-space slicing, and per-grain completions are the progress
// record — a restarted executor resumes from whatever the store already
// covers.
func RunLeased(ctx context.Context, spec Spec, st Store, opts LeaseOptions) (LeaseStats, error) {
	var zero LeaseStats
	if st == nil {
		return zero, fmt.Errorf("sweep: RunLeased needs a store")
	}
	if opts.Worker == "" {
		return zero, fmt.Errorf("sweep: RunLeased needs a worker id")
	}
	if err := validStoreName(opts.Worker); err != nil {
		return zero, fmt.Errorf("sweep: worker id: %w", err)
	}
	if spec.Done != nil || spec.OnBlock != nil {
		return zero, fmt.Errorf("sweep: RunLeased owns the schedule; Spec.Done and OnBlock must be unset")
	}
	if err := opts.Static.validate(); err != nil {
		return zero, err
	}
	if opts.Prefix == "" {
		opts.Prefix = "leaserun"
	}
	if err := validStoreName(opts.Prefix); err != nil {
		return zero, fmt.Errorf("sweep: lease prefix: %w", err)
	}
	if opts.GrainsPerSize <= 0 {
		opts.GrainsPerSize = 16
	}
	if opts.expireScans <= 0 {
		opts.expireScans = 8
	}
	if opts.speculateScans <= 0 {
		opts.speculateScans = 3
	}
	opts.defaultPacing()
	if ctx == nil {
		ctx = context.Background()
	}
	st = RetryingStore(ctx, st, opts)

	plan, err := PlanOf(spec)
	if err != nil {
		return zero, err
	}
	counts, err := plan.Counts()
	if err != nil {
		return zero, err
	}
	if err := ensureLeasePlan(st, opts.Prefix, &leasePlan{Plan: plan, Grains: opts.GrainsPerSize}); err != nil {
		return zero, &WorkerError{Worker: opts.Worker, Err: err}
	}

	r := &leaseRunner{
		spec: spec, st: st, opts: opts, prefix: opts.Prefix, counts: counts,
		scanner: newLeaseScanner(st, opts.Prefix, plan, counts),
		grain:   make([]int, len(counts)),
		target:  make([]TrialRange, len(counts)),
	}
	for i, c := range counts {
		r.grain[i] = grainSize(c, opts.GrainsPerSize)
		lo, hi := 0, c
		if !opts.Static.IsZero() {
			// The degenerate schedule: grain g belongs to the shard whose
			// classic slice contains g's start, so m static workers tile
			// the grain set exactly once with no coordination.
			slo, shi := opts.Static.Range(c)
			lo = min(alignUp(slo, r.grain[i]), c)
			hi = min(alignUp(shi, r.grain[i]), c)
		}
		r.target[i] = TrialRange{T0: lo, T1: hi}
	}
	// Largest instance first, like the engine's own block planner.
	r.order = make([]int, len(plan.Sizes))
	for i := range r.order {
		r.order[i] = i
	}
	sort.SliceStable(r.order, func(a, b int) bool {
		return plan.Sizes[r.order[a]] > plan.Sizes[r.order[b]]
	})

	defer st.Delete(leaseKey(r.prefix, opts.Worker))
	if err = r.loop(ctx); err != nil {
		// Everything past option validation is a worker-attributable
		// failure the supervisor counts.
		err = &WorkerError{Worker: opts.Worker, Err: err}
	}
	return r.stats, err
}

// beatTrack follows one remote lease's heartbeat across idle scans.
type beatTrack struct {
	beat     int64
	stagnant int
}

// loop is the executor's claim-execute cycle.
func (r *leaseRunner) loop(ctx context.Context) error {
	beats := make(map[string]*beatTrack)
	idle := 0
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sweep: leased run cancelled: %w", err)
		}
		// The store has already retried a transient fault; one that
		// outlasts the retries, or a final one, ends the executor and the
		// supervisor counts the death.
		sc, err := r.scanner.scan()
		if err != nil {
			return err
		}
		done := true
		for i, t := range r.target {
			if !covered(sc.coverage[i], t) {
				done = false
			}
		}
		if done {
			return nil
		}
		// Heartbeat bookkeeping happens on every scan — a busy executor
		// must still notice a dead peer, or its frozen lease would pin the
		// uncovered head of the space forever. Stagnation counts scans with
		// an unchanged Beat; false expiry (a merely slow peer) is safe, it
		// only duplicates deterministic work.
		for w, l := range sc.leases {
			if w == r.opts.Worker {
				continue
			}
			if bt := beats[w]; bt != nil && bt.beat == l.Beat {
				bt.stagnant++
			} else {
				beats[w] = &beatTrack{beat: l.Beat}
			}
		}
		for w := range beats {
			if _, live := sc.leases[w]; !live {
				delete(beats, w)
			}
		}
		expired := make(map[string]bool)
		for w, bt := range beats {
			if bt.stagnant >= r.opts.expireScans {
				expired[w] = true
			}
		}
		b, kind, ok := r.chooseClaim(sc, expired, idle)
		if !ok {
			// Someone else holds all remaining work: back off and rescan,
			// waiting longer the longer nothing is claimable.
			r.opts.Retry.Wait(ctx, idle)
			idle++
			continue
		}
		idle = 0
		switch kind {
		case claimFresh:
			r.stats.Claims++
		case claimSteal:
			r.stats.Steals++
		case claimAdopt:
			r.stats.Adopted++
		case claimSpec:
			r.stats.Speculated++
		}
		if err := r.executeLease(ctx, b, sc.maxSeq+1); err != nil {
			return err
		}
	}
}

// chooseClaim picks this executor's next lease: a fresh range from the
// free pool (adopting expired claims' remainders), else a stolen straggler
// tail, else — after some idle patience — a speculative duplicate of a
// live straggler.
func (r *leaseRunner) chooseClaim(sc *scanState, expired map[string]bool, idle int) (Block, claimKind, bool) {
	// Live remote claims block the free pool; expired ones do not.
	live := make([]*Lease, 0, len(sc.leases))
	for w, l := range sc.leases {
		if w == r.opts.Worker || expired[w] || l.Next >= l.T1 {
			continue
		}
		live = append(live, l)
	}
	sort.Slice(live, func(a, b int) bool { return live[a].Worker < live[b].Worker })

	for _, i := range r.order {
		busy := append([]TrialRange(nil), sc.coverage[i]...)
		for _, l := range live {
			if l.SizeIdx == i {
				busy = insertRange(busy, TrialRange{T0: l.Next, T1: l.T1})
			}
		}
		avail := subtractRanges(r.target[i].T0, r.target[i].T1, busy)
		if len(avail) == 0 {
			continue
		}
		g := r.grain[i]
		rng := avail[0]
		t1 := rng.T0 + maxLeaseGrains*g
		if t1 > rng.T1 {
			t1 = rng.T1
		}
		b := Block{SizeIdx: i, T0: rng.T0, T1: t1}
		kind := claimFresh
		for w, l := range sc.leases {
			if expired[w] && l.SizeIdx == i && l.Next < b.T1 && b.T0 < l.T1 {
				kind = claimAdopt
			}
		}
		return b, kind, true
	}
	if !r.opts.Static.IsZero() {
		// The degenerate schedule never steals: its slice is either done
		// (loop exits) or being executed by this very worker.
		return Block{}, 0, false
	}

	// Steal: take the tail half of the largest live UNCOVERED remainder,
	// if it still spans at least two grains. Subtracting coverage matters
	// for progress: a tail that is already covered by completions must not
	// be stolen again and again while the victim's head stays pinned.
	var victim *Lease
	var victimRem []TrialRange
	victimGrains := 1
	for _, l := range live {
		rem := subtractRanges(l.Next, l.T1, sc.coverage[l.SizeIdx])
		g := r.grain[l.SizeIdx]
		k := 0
		for _, x := range rem {
			k += (x.T1 - x.T0 + g - 1) / g
		}
		if k > victimGrains {
			victim, victimRem, victimGrains = l, rem, k
		}
	}
	if victim != nil {
		g := r.grain[victim.SizeIdx]
		need := victimGrains / 2
		t0 := victim.Next
		for j := len(victimRem) - 1; j >= 0; j-- {
			x := victimRem[j]
			k := (x.T1 - x.T0 + g - 1) / g
			if k >= need {
				t0 = x.T0 + (k-need)*g
				break
			}
			need -= k
		}
		return Block{SizeIdx: victim.SizeIdx, T0: t0, T1: victim.T1}, claimSteal, true
	}

	// Speculation: every remaining claim is a single in-flight grain. After
	// a little patience, re-execute one — duplicates are byte-identical, so
	// the only cost is work, and the benefit is not waiting on a straggler
	// that may never finish. Only claims with uncovered work qualify.
	if idle >= r.opts.speculateScans {
		for _, l := range live {
			rem := subtractRanges(l.Next, l.T1, sc.coverage[l.SizeIdx])
			if len(rem) > 0 {
				return Block{SizeIdx: l.SizeIdx, T0: rem[0].T0, T1: l.T1}, claimSpec, true
			}
		}
	}
	return Block{}, 0, false
}

// executeLease publishes the claim and executes it grain by grain: skip
// grains someone already completed, run the rest through the engine, write
// a completion per grain, heartbeat the lease, and cede any tail a
// higher-Seq thief has taken.
func (r *leaseRunner) executeLease(ctx context.Context, b Block, seq int64) error {
	l := Lease{PlanSum: r.scanner.sum, Worker: r.opts.Worker,
		SizeIdx: b.SizeIdx, T0: b.T0, T1: b.T1, Next: b.T0, Seq: seq}
	r.putLease(&l) // advisory: a failed write only hides the claim, never corrupts
	g := r.grain[b.SizeIdx]
	for l.Next < l.T1 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sweep: leased run cancelled: %w", err)
		}
		t1 := l.Next + g
		if t1 > l.T1 {
			t1 = l.T1
		}
		gb := Block{SizeIdx: b.SizeIdx, T0: l.Next, T1: t1}
		key := completionKey(r.prefix, gb)
		if r.scanner.load(key) != nil {
			// First write wins: an accepted record is never overwritten.
			r.stats.Duplicates++
			r.advance(&l, t1)
			continue
		}
		if r.opts.Throttle != nil {
			r.opts.Throttle(gb)
		}
		stats, err := r.runGrain(ctx, gb)
		if err != nil {
			return err
		}
		comp := &Completion{PlanSum: r.scanner.sum, Worker: r.opts.Worker, Block: gb, Stats: stats}
		if w := r.scanner.weights[gb.SizeIdx]; w > 1 {
			comp.Weight = int64(w)
		}
		var buf bytes.Buffer
		if err := EncodeCompletion(&buf, comp); err != nil {
			return err
		}
		// A record that fails to land even after the store's retries leaves
		// its grain uncovered: some executor (possibly this one, next
		// claim) re-runs it and overwrites whatever the failed write left.
		r.st.Put(key, buf.Bytes())
		r.stats.Grains++
		r.advance(&l, t1)
	}
	r.st.Delete(leaseKey(r.prefix, r.opts.Worker))
	return nil
}

// advance moves the lease cursor past a finished (or skipped) grain,
// cedes any tail a higher-Seq claim overlaps, and heartbeats the record.
func (r *leaseRunner) advance(l *Lease, next int) {
	l.Next = next
	l.Beat++
	// A higher-Seq claim overlapping our remainder wins it. A failed read
	// only defers the cede to the next grain.
	if others, err := r.scanner.leases(l.Worker); err == nil {
		for _, o := range others {
			if o.SizeIdx == l.SizeIdx && o.Seq > l.Seq &&
				o.T0 < l.T1 && l.Next < o.T1 && o.T0 >= l.Next {
				l.T1 = o.T0
			}
		}
	}
	if l.Next > l.T1 {
		l.Next = l.T1
	}
	r.putLease(l)
}

func (r *leaseRunner) putLease(l *Lease) {
	var buf bytes.Buffer
	if err := EncodeLease(&buf, l); err != nil {
		return
	}
	r.st.Put(leaseKey(r.prefix, l.Worker), buf.Bytes())
}

// runGrain executes exactly the grain's trials through the ordinary
// engine: the rest of the trial space is declared Done, so the planner
// emits the grain and nothing else. Graphs are rebuilt per grain (cheap,
// deterministic) and the per-size atlas comes from the engine's cross-run
// cache, so repeated grains at one size share their BFS layers.
func (r *leaseRunner) runGrain(ctx context.Context, b Block) (SizeStats, error) {
	s := r.spec
	done := make([][]TrialRange, len(r.counts))
	for j, c := range r.counts {
		if j != b.SizeIdx {
			done[j] = []TrialRange{{T0: 0, T1: c}}
			continue
		}
		var rs []TrialRange
		if b.T0 > 0 {
			rs = append(rs, TrialRange{T0: 0, T1: b.T0})
		}
		if b.T1 < c {
			rs = append(rs, TrialRange{T0: b.T1, T1: c})
		}
		done[j] = rs
	}
	s.Done = done
	res, err := Run(ctx, s)
	if err != nil {
		return SizeStats{}, err
	}
	return res.Sizes[b.SizeIdx], nil
}

// sleepCtx waits d or until the context fires, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// SizeProgress is one size's coverage in a leased run: how many of its
// trials are covered by valid completion records.
type SizeProgress struct {
	N     int `json:"n"`
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Progress is one lease-scan snapshot of a run — the supervisor-facing
// view sweepd serves as job status and watches for wedged workers: a run
// whose Covered count and Beats sum both freeze across snapshots while
// claims are live is making no progress.
type Progress struct {
	// Sizes is the per-size completion coverage, in plan order.
	Sizes []SizeProgress `json:"sizes"`
	// Workers counts the live claim records in the store.
	Workers int `json:"workers"`
	// Beats sums the live claims' heartbeat counters.
	Beats int64 `json:"beats"`
}

// Covered returns the total completed trials across sizes.
func (p *Progress) Covered() int {
	t := 0
	for _, s := range p.Sizes {
		t += s.Done
	}
	return t
}

// Total returns the run's total trial count across sizes.
func (p *Progress) Total() int {
	t := 0
	for _, s := range p.Sizes {
		t += s.Total
	}
	return t
}

// Complete reports whether every size's trial space is fully covered.
func (p *Progress) Complete() bool { return p.Covered() == p.Total() }

// LeaseProgress snapshots a lease run's coverage and live claims without
// joining it: one scan over the run's records, the same validation the
// executors apply (torn, foreign or overlapping-plan records read as
// absent). A store holding no records yet reports zero coverage, not an
// error — the run simply has not started.
func LeaseProgress(st Store, prefix string, plan Plan) (*Progress, error) {
	counts, err := plan.Counts()
	if err != nil {
		return nil, err
	}
	sc, err := newLeaseScanner(st, prefix, plan, counts).scan()
	if err != nil {
		return nil, err
	}
	p := &Progress{Sizes: make([]SizeProgress, len(plan.Sizes)), Workers: len(sc.leases)}
	for i, n := range plan.Sizes {
		done := 0
		for _, r := range sc.coverage[i] {
			done += r.T1 - r.T0
		}
		p.Sizes[i] = SizeProgress{N: n, Done: done, Total: counts[i]}
	}
	for _, l := range sc.leases {
		p.Beats += l.Beat
	}
	return p, nil
}

// CollectLeased folds a lease run's completion records into the Result a
// single uninterrupted Run of the plan's spec produces, byte for byte. It
// is strict: per size, the valid records must tile the plan's trial space
// exactly once — overlaps fail with *OverlapError (the first-write-wins
// precondition), gaps with *IncompleteError, and a store whose plan record
// disagrees with the expected plan is rejected outright. Torn or foreign
// records are skipped (they are "absent", exactly as executors treat
// them), so they surface as gaps, never as corrupted aggregates.
func CollectLeased(st Store, prefix string, plan Plan) (*Result, error) {
	counts, err := plan.Counts()
	if err != nil {
		return nil, err
	}
	if data, err := st.Get(leasePlanKey(prefix)); err == nil {
		lp := &leasePlan{}
		if derr := DecodeFile(bytes.NewReader(data), FormatLeasePlan, lp); derr == nil && !lp.Plan.Equal(plan) {
			return nil, fmt.Errorf("sweep: lease run %q holds a different plan", prefix)
		}
	}
	all, err := newLeaseScanner(st, prefix, plan, counts).completions()
	if err != nil {
		return nil, err
	}
	// Each completion keeps its store key so a collect failure can name the
	// offending record, not just describe the collision.
	type keyed struct {
		c   *Completion
		key string
	}
	bySize := make([][]keyed, len(plan.Sizes))
	for name, c := range all {
		bySize[c.Block.SizeIdx] = append(bySize[c.Block.SizeIdx], keyed{c: c, key: name})
	}

	out := &Result{Sizes: make([]SizeStats, len(plan.Sizes))}
	for i, n := range plan.Sizes {
		out.Sizes[i].N = n
		comps := bySize[i]
		// The records come from a map: only this total order keeps the fold
		// and any reported collision stable.
		sort.Slice(comps, func(a, b int) bool {
			ca, cb := comps[a].c.Block, comps[b].c.Block
			if ca.T0 != cb.T0 {
				return ca.T0 < cb.T0
			}
			if ca.T1 != cb.T1 {
				return ca.T1 < cb.T1
			}
			return comps[a].key < comps[b].key
		})
		var missing []TrialRange
		var prev TrialRange
		cur := 0
		for _, kc := range comps {
			c := kc.c
			if c.Block.T0 < cur {
				return nil, &OverlapError{N: n, A: prev,
					B: TrialRange{T0: c.Block.T0, T1: c.Block.T1}, Key: kc.key}
			}
			if c.Block.T0 > cur {
				missing = append(missing, TrialRange{T0: cur, T1: c.Block.T0})
			}
			prev = TrialRange{T0: c.Block.T0, T1: c.Block.T1}
			cur = c.Block.T1
		}
		if cur < counts[i] {
			missing = append(missing, TrialRange{T0: cur, T1: counts[i]})
		}
		if len(missing) > 0 {
			return nil, &IncompleteError{N: n, Missing: missing, Prefix: prefix}
		}
		for _, kc := range comps {
			out.Sizes[i].Merge(&kc.c.Stats)
		}
	}
	return out, nil
}
