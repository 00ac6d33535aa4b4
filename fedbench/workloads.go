package main

import (
	"fmt"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/federation"
	"rtsads/internal/workload"
)

// The federation every workload runs: 2 shards × 4 workers, affinity-first
// placement with deadline-safe migration, on the §5.1 database at SF 1.
const (
	shards          = 2
	workersPerShard = 4
	// scale is the live tier's wall-to-virtual ratio: one virtual
	// millisecond lasts four wall milliseconds.
	scale = 4
	// simCycle is how many distinct workloads a sim-overload run cycles
	// through. hit_ratio is taken over the first cycle only, so it is an
	// exact function of the seed however many cycles the run fits.
	simCycle = 3
)

// spec is one named benchmark workload.
type spec struct {
	name string
	// gap is the mean Poisson inter-arrival time on the virtual clock.
	gap time.Duration
	// tasks is the number of tasks one repetition offers.
	tasks int
	// queueCap is each shard's admission queue bound (0 = no cap).
	queueCap int
	// live runs the router and shards over loopback TCP; otherwise the
	// deterministic federation.Simulate runs the same arrivals.
	live bool
}

// specs are the benchmark's workloads. A repetition lasts about two wall
// seconds on the live tier, so a run holds enough of them for a median.
var specs = []spec{
	// The live federation well below capacity: batches are small and
	// search is light, so the wire, shard sessions, host loop and obs
	// dominate. Search gains should not show here.
	{name: "tcp-steady", gap: 200 * time.Microsecond, tasks: 2500, live: true},
	// The live federation past capacity: large batches planned on a
	// wall-clock quantum, so search speed moves deadline hits; shards
	// bounce work back and the router migrates it.
	{name: "tcp-overload", gap: 50 * time.Microsecond, tasks: 10000, queueCap: 16, live: true},
	// tcp-overload's arrivals in the deterministic simulator: planning-
	// bound, with no wire, sleep or obs, so search gains show and wire or
	// obs gains must not; its hit counts are exact per seed.
	{name: "sim-overload", gap: 50 * time.Microsecond, tasks: 10000, queueCap: 16},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (want tcp-steady, tcp-overload, sim-overload or all)", name)
}

// repSeed derives repetition r's workload seed from the run's seed, so a
// run's inputs are a function of --seed alone.
func repSeed(seed uint64, r int) uint64 { return seed*1000 + uint64(r) }

// params builds one repetition's workload parameters.
func (s spec) params(seed uint64) workload.Params {
	p := workload.DefaultParams(shards * workersPerShard)
	p.Seed = seed
	p.NumTransactions = s.tasks
	p.Arrival = workload.Poisson
	p.MeanInterArrival = s.gap
	return p
}

func (s spec) topology() federation.Topology {
	return federation.Topology{Shards: shards, WorkersPerShard: workersPerShard}
}

func (s spec) admission() admission.Config {
	return admission.Config{QueueCap: s.queueCap}
}

// rep is what one repetition measured.
type rep struct {
	seed    uint64
	offered int
	hits    int
	// failed counts tasks the run lost outright: lost with a worker or
	// shard, or never given a verdict. Deadline misses are not failures;
	// they are what hit_ratio measures.
	failed int
	// setup runs from the repetition's start to its first routed task
	// (live) or to the start of Simulate (sim).
	setup time.Duration
	// run is the wall time the federation took to serve the workload.
	run     time.Duration
	cpu     time.Duration
	heapMB  float64
	gen     time.Duration
	allocMB float64
	gcs     uint64
	// guaranteeMS is due arrival → first deliver journal entry per
	// dispatched task, on the virtual clock. A simulator repetition past
	// the first seed cycle has none.
	guaranteeMS []float64
	// checks counts the correctness checks evaluated on the program's
	// ground truth; problems lists those that failed, and any entry makes
	// the run incorrect.
	checks   int
	problems []string
	// bookErr is the first disagreement in the router's own books
	// (Reconcile, or the router's per-shard results against the shards'
	// registries). It is counted, not fatal: see README.md.
	bookErr error

	layers layerCounts
}

// check records one correctness check on the program's ground truth.
func (r *rep) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// layerCounts are the traced run's per-layer raw figures of one
// repetition.
type layerCounts struct {
	plan *planProbe
	wire *wireProbe

	routed, bounced, migrated int
	routeLagMS                []float64

	queueWaitMS, planningMS, workerWaitMS, execMS []float64
	purged, schedMissed                           int
	shedQueueFull, shedHopeless                   int

	journalEntries, journalEvicted int64
}
