package sweep

// The chaos suite is the lease protocol's correctness argument made
// executable: whatever combination of worker kills, steals, speculative
// duplicates, replayed completions and torn store writes a scenario throws
// at a run, the surviving records must still collect to the bytes of a
// single uninterrupted Run. Scenarios are seeded and self-contained — a
// failure names its seed in the subtest name, so
//
//	go test -run 'TestChaosLeaseEquivalence/seed7' ./internal/sweep/
//
// replays exactly the failing schedule-independent scenario (worker
// counts, kill points, fault periods and delays all derive from the seed;
// only goroutine interleaving varies, which the protocol must tolerate by
// design). The deterministic protocol tests alongside pin each recovery
// mechanism — steal, speculation, adoption — individually.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLeasedStealFromStraggler pins the steal path: a victim claims the
// whole trial space, a thief arriving late finds the free pool empty and
// must take the victim's tail — and the merge is unharmed. The victim must
// cede the stolen tail at its next grain boundary, so no grain runs twice.
// Throttle hooks order the two workers, so the schedule is exact:
//
//	victim  claims grains 0-3, waits in grain 0 until the thief has stolen
//	thief   steals grains 2-3, waits until the victim has advanced past 0
//	victim  cedes 2-3, waits in grain 1 until the thief's claim is gone
func TestLeasedStealFromStraggler(t *testing.T) {
	spec := cycleSpec(21, []int{9}, 32, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	leaseOf := func(worker string) *Lease {
		data, err := st.Get("leaserun/lease/" + worker)
		if err != nil {
			return nil
		}
		l, err := DecodeLease(bytes.NewReader(data))
		if err != nil {
			return nil
		}
		return l
	}
	// await polls cond until it holds; the deadline only bounds a broken
	// protocol, whose grains then run twice and fail the checks below.
	await := func(cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond() && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	claimed, stolen := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	var victim LeaseStats
	var victimErr error
	go func() {
		defer wg.Done()
		victim, victimErr = RunLeased(context.Background(), spec, st, LeaseOptions{
			Worker:        "victim",
			GrainsPerSize: 4, // one claim takes all four grains: nothing left but stealing
			Throttle: func(b Block) {
				if b.T0 == 0 {
					close(claimed)
					<-stolen
					return
				}
				await(func() bool { return leaseOf("thief") == nil })
			},
		})
	}()
	<-claimed
	thief, err := RunLeased(context.Background(), spec, st, LeaseOptions{
		Worker:        "thief",
		GrainsPerSize: 4,
		Retry:         Backoff{Base: time.Millisecond},
		// Never adopt or speculate on the victim's last grain: a grain run
		// twice could then only come from a tail the victim failed to cede.
		expireScans:    math.MaxInt,
		speculateScans: math.MaxInt,
		Throttle: func(Block) {
			once.Do(func() {
				close(stolen)
				await(func() bool {
					l := leaseOf("victim")
					return l == nil || l.Next > 0
				})
			})
		},
	})
	if err != nil {
		t.Fatalf("thief: %v", err)
	}
	wg.Wait()
	if victimErr != nil {
		t.Fatalf("victim: %v", victimErr)
	}
	if thief.Steals == 0 {
		t.Errorf("thief never stole: %+v", thief)
	}
	if ran := thief.Grains + victim.Grains; ran != 4 || victim.Duplicates != 0 {
		t.Errorf("4 grains ran %d times and the victim skipped %d duplicates; it must cede its stolen tail\nthief:  %+v\nvictim: %+v",
			ran, victim.Duplicates, thief, victim)
	}
	got, err := CollectLeased(st, "leaserun", mustPlanOf(spec))
	if err != nil {
		t.Fatalf("CollectLeased: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("stolen run differs from direct run\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestLeasedSpeculateOnStraggler pins speculation: when the only remaining
// work is a single in-flight grain, an idle worker re-executes it rather
// than waiting forever, and the duplicate completion changes nothing.
func TestLeasedSpeculateOnStraggler(t *testing.T) {
	spec := cycleSpec(22, []int{8}, 6, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	claimed := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	var slowErr error
	go func() {
		defer wg.Done()
		_, slowErr = RunLeased(context.Background(), spec, st, LeaseOptions{
			Worker:        "slow",
			GrainsPerSize: 1, // the whole size is one grain: unstealable
			Throttle: func(Block) {
				once.Do(func() { close(claimed) })
				time.Sleep(30 * time.Millisecond)
			},
		})
	}()
	<-claimed
	fast, err := RunLeased(context.Background(), spec, st, LeaseOptions{
		Worker:         "fast",
		GrainsPerSize:  1,
		Retry:          Backoff{Base: time.Millisecond},
		speculateScans: 2,
	})
	if err != nil {
		t.Fatalf("fast worker: %v", err)
	}
	wg.Wait()
	if slowErr != nil {
		t.Fatalf("slow worker: %v", slowErr)
	}
	if fast.Speculated == 0 {
		t.Errorf("fast worker never speculated: %+v", fast)
	}
	got, err := CollectLeased(st, "leaserun", mustPlanOf(spec))
	if err != nil {
		t.Fatalf("CollectLeased: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("speculated run differs from direct run\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestLeasedAdoptExpiredLease pins adoption: a lease whose heartbeat froze
// (its worker crashed without cleaning up) is expired after the observer's
// patience and its remainder returns to the free pool.
func TestLeasedAdoptExpiredLease(t *testing.T) {
	spec := cycleSpec(23, []int{10}, 24, 1)
	want, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	// A crashed worker's leftover claim: covers the whole space, Beat
	// frozen forever. RunLeased cleans its own record up even on error, so
	// the crash is simulated by planting the record directly.
	plan := mustPlanOf(spec)
	dead := &Lease{PlanSum: planSum(plan), Worker: "dead", SizeIdx: 0, T0: 0, T1: 24, Next: 0, Seq: 1}
	if err := ensureLeasePlan(st, "leaserun", &leasePlan{Plan: plan, Grains: 6}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeLease(&buf, dead); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("leaserun/lease/dead", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	stats, err := RunLeased(context.Background(), spec, st, LeaseOptions{
		Worker:        "healer",
		GrainsPerSize: 6,
		Retry:         Backoff{Base: time.Millisecond},
		expireScans:   3,
	})
	if err != nil {
		t.Fatalf("healer: %v", err)
	}
	if stats.Adopted == 0 {
		t.Errorf("healer never adopted the dead lease: %+v", stats)
	}
	got, err := CollectLeased(st, "leaserun", plan)
	if err != nil {
		t.Fatalf("CollectLeased: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("adopted run differs from direct run\nwant: %+v\ngot:  %+v", want, got)
	}
}

// chaosScenario is everything a seed determines about one chaos run.
type chaosScenario struct {
	spec       Spec
	grains     int
	tornPeriod int  // tear every nth done/-write (0: no faults)
	replay     bool // re-publish completions under a different worker id
	waves      [][]chaosWorker
}

type chaosWorker struct {
	killAfter int // cancel the worker's context after this many grains (0: immortal)
	delay     time.Duration
}

// scenarioFor derives a full scenario from a seed. The last wave is always
// clean — immortal workers, faults off — so every scenario terminates.
func scenarioFor(seed int64) chaosScenario {
	rng := rand.New(rand.NewSource(seed))
	nsizes := 1 + rng.Intn(2)
	sizes := make([]int, nsizes)
	for i := range sizes {
		sizes[i] = 6 + rng.Intn(9)
	}
	sc := chaosScenario{
		spec:       cycleSpec(seed, sizes, 12+rng.Intn(21), 2),
		grains:     3 + rng.Intn(6),
		tornPeriod: rng.Intn(4), // 0 or tear every 1st..3rd write
		replay:     rng.Intn(2) == 1,
	}
	waves := 2 + rng.Intn(3)
	for w := 0; w < waves; w++ {
		last := w == waves-1
		n := 2 + rng.Intn(3)
		wave := make([]chaosWorker, n)
		for i := range wave {
			wave[i].delay = time.Duration(rng.Intn(1500)) * time.Microsecond
			if !last && rng.Intn(2) == 0 {
				wave[i].killAfter = 1 + rng.Intn(5)
			}
		}
		sc.waves = append(sc.waves, wave)
	}
	return sc
}

// TestChaosLeaseEquivalence is the headline harness: every seeded scenario
// of kills, duplicates, steals and torn writes must end in a store whose
// CollectLeased equals the single-process Run byte for byte.
func TestChaosLeaseEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	if testing.Short() {
		seeds = seeds[:4]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaosScenario(t, scenarioFor(seed))
		})
	}
}

func runChaosScenario(t *testing.T, sc chaosScenario) {
	t.Helper()
	want, err := Run(context.Background(), sc.spec)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemStore()
	if sc.tornPeriod > 0 {
		// Tear every tornPeriod-th completion write — but with a bounded
		// per-object budget (one or two failures), so a write eventually
		// lands however unlucky the schedule: an unbounded fault would
		// starve immortal workers forever, which is a test-harness bug,
		// not a protocol finding.
		var mu sync.Mutex
		writes := 0
		doomed := make(map[string]int)
		st.FaultPuts(func(name string, data []byte) ([]byte, error) {
			if !strings.Contains(name, "/done/") {
				return data, nil
			}
			mu.Lock()
			defer mu.Unlock()
			writes++
			if budget, hit := doomed[name]; hit {
				if budget > 0 {
					doomed[name] = budget - 1
					return data[:len(data)/2], fmt.Errorf("chaos: torn write of %s", name)
				}
				return data, nil
			}
			if writes%sc.tornPeriod == 0 {
				doomed[name] = writes % 2 // this failure, plus maybe the retry
				return data[:len(data)/2], fmt.Errorf("chaos: torn write of %s", name)
			}
			return data, nil
		})
	}
	plan := mustPlanOf(sc.spec)
	for w, wave := range sc.waves {
		if w == len(sc.waves)-1 {
			st.FaultPuts(nil) // the last wave always lands its writes
		}
		var wg sync.WaitGroup
		errs := make([]error, len(wave))
		kills := make([]bool, len(wave))
		for i, cw := range wave {
			wg.Add(1)
			go func(i int, cw chaosWorker) {
				defer wg.Done()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				grains := 0
				var mu sync.Mutex
				_, err := RunLeased(ctx, sc.spec, st, LeaseOptions{
					Worker:         fmt.Sprintf("wave%d-w%d", w, i),
					GrainsPerSize:  sc.grains,
					Retry:          Backoff{Base: time.Millisecond},
					expireScans:    4,
					speculateScans: 2,
					Throttle: func(Block) {
						mu.Lock()
						grains++
						doomed := cw.killAfter > 0 && grains >= cw.killAfter
						mu.Unlock()
						if doomed {
							kills[i] = true
							cancel()
						}
						time.Sleep(cw.delay)
					},
				})
				errs[i] = err
			}(i, cw)
		}
		wg.Wait()
		for i, err := range errs {
			// A killed worker must die with its context's error; a worker
			// that outlived its kill budget (someone else finished the work
			// first) must exit cleanly.
			if kills[i] && err == nil {
				t.Fatalf("wave %d worker %d: killed but returned nil", w, i)
			}
			if !kills[i] && err != nil {
				t.Fatalf("wave %d worker %d: %v", w, i, err)
			}
		}
		if sc.replay {
			replayCompletions(t, st)
		}
		if got, err := CollectLeased(st, "leaserun", plan); err == nil {
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("wave %d: chaos run differs from direct run\nwant: %+v\ngot:  %+v", w, want, got)
			}
			return
		}
	}
	// The final wave is clean and immortal; reaching here means it exited
	// without covering the space — a protocol bug.
	_, err = CollectLeased(st, "leaserun", plan)
	t.Fatalf("store never became collectable: %v", err)
}

// replayCompletions models a duplicate publisher: existing completion
// records re-Put under another worker's name. The stats payload is
// untouched, so the merge must not care.
func replayCompletions(t *testing.T, st *MemStore) {
	t.Helper()
	names, err := st.List("leaserun/done/")
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if i%3 != 0 {
			continue
		}
		data, err := st.Get(name)
		if err != nil {
			continue
		}
		c, derr := DecodeCompletion(bytes.NewReader(data))
		if derr != nil {
			continue
		}
		c.Worker = "replayer"
		var buf bytes.Buffer
		if err := EncodeCompletion(&buf, c); err != nil {
			t.Fatal(err)
		}
		if err := st.Put(name, buf.Bytes()); err != nil {
			// Faulted stores may refuse the replay; that is chaos working.
			continue
		}
	}
}
