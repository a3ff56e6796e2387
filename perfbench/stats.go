package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, as (value, percentile). With ten samples or fewer there is no
// such percentile and it reports the maximum at percentile 100.
func tail(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 11 // s[k] has len-k-1 = 10 samples beyond it
	if k < 0 {
		return s[len(s)-1], 100
	}
	return s[k], 100 * float64(k+1) / float64(len(s))
}

// rssSampler samples the resident set size every 2 ms and keeps the
// highest sample: the peak memory of the timed legs alone, which the
// process-lifetime VmHWM would mix with the verification pass.
type rssSampler struct {
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if b, err := residentBytes(); err == nil && b > s.peak.Load() {
				s.peak.Store(b) // the only writer
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// peakMiB returns the highest resident set sampled so far, in MiB.
func (s *rssSampler) peakMiB() float64 {
	b, _ := residentBytes()
	return float64(max(s.peak.Load(), b)) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

var pageSize = int64(os.Getpagesize())

// residentBytes reads the current resident set size from /proc/self/statm.
func residentBytes() (int64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", raw)
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return pages * pageSize, nil
}

// stealLimit is the share of CPU ticks the hypervisor may give to other
// machines during a timed iteration before the iteration counts as
// contended and is left out of the medians. On the 2-vCPU development
// host, sets of runs whose medians agreed saw 1-3% steal; sets whose
// medians drifted by up to a third saw 7.5-23%.
const stealLimit = 0.05

// hostTicks is one reading of the aggregate cpu line of /proc/stat: all
// ticks and the ticks the hypervisor stole from this machine's CPUs.
type hostTicks struct{ total, steal int64 }

func readTicks() (hostTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var h hostTicks
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		h.total += v
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

// stealSince is the share of the ticks since an earlier reading that the
// hypervisor stole.
func (h hostTicks) stealSince(earlier hostTicks) float64 {
	return float64(h.steal-earlier.steal) / float64(max(h.total-earlier.total, 1))
}

// quiet returns the iterations whose steal share is within stealLimit, or
// all of them when fewer than min are: a host contended throughout still
// gets a figure. Reports print how many iterations their medians used.
func quiet[T any](its []T, steal func(T) float64, min int) []T {
	var kept []T
	for _, it := range its {
		if steal(it) <= stealLimit {
			kept = append(kept, it)
		}
	}
	if len(kept) < min {
		return its
	}
	return kept
}

// medianOf is the median of f over xs.
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	return median(vals)
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// settle returns freed memory to the OS between timed legs, so one leg's
// garbage neither inflates the next leg's peak memory nor triggers a
// collection inside its timed region.
func settle() { debug.FreeOSMemory() }
