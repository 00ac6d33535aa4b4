package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// quantile returns the q-quantile of xs by the nearest-rank rule, or 0 for
// an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle of xs (mean of the two middles for an even
// count), or 0 for an empty sample. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters samples the Go runtime's cumulative GC cycle and
// allocation counters.
type runtimeCounters struct {
	gcCycles   uint64
	allocBytes uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
}

// heapWatch samples the bytes held by live and not-yet-swept heap objects
// every few milliseconds and keeps the peak. runtime/metrics reads do not
// stop the world, so the sampler does not perturb the run it watches.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapSampleEvery = 5 * time.Millisecond

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak heap in MiB.
func (h *heapWatch) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// cpuTicks are the machine's cumulative CPU time counters from
// /proc/stat: the time the hypervisor stole, and the total.
type cpuTicks struct{ steal, total uint64 }

// readSteal reads the aggregate CPU line of /proc/stat; zero where the
// kernel does not provide it.
func readSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		// guest and guest_nice (fields 9 and 10) are already inside user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since returns the share of CPU time stolen between t0 and t.
func (t cpuTicks) since(t0 cpuTicks) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
