package main

import (
	"fmt"
	"runtime"
	"time"

	"rtsads/internal/experiment"
	"rtsads/internal/federation"
	"rtsads/internal/obs"
	"rtsads/internal/workload"
)

// simCounts are the deterministic outcome counts of one simulation.
type simCounts struct {
	hits, purged, shed, missed, bounced, migrated int
}

func countsOf(res *federation.Result) simCounts {
	c := res.Combined()
	return simCounts{
		hits: c.Hits, purged: c.Purged, shed: c.Shed, missed: c.ScheduledMissed,
		bounced: res.Bounced, migrated: res.Migrated,
	}
}

// simConfig is sim-overload's simulation of workload w: the tcp-overload
// topology, placement and admission.
func (s spec) simConfig(w *workload.Workload, algo experiment.Algorithm) federation.SimConfig {
	return federation.SimConfig{
		Workload:  w,
		Topology:  s.topology(),
		Placement: federation.AffinityFirst,
		Migrate:   true,
		Algorithm: algo,
		Admission: s.admission(),
	}
}

// runSim runs one timed repetition of sim-overload: the tcp-overload
// arrivals, topology and admission in federation.Simulate, without
// observers. Untraced repetitions plan with plain RT-SADS; traced ones
// through the plan probe.
func runSim(s spec, seed uint64, traced bool) (*rep, simCounts, error) {
	// Start from a collected heap, so the previous repetition's garbage is
	// not charged to this one.
	runtime.GC()
	r := &rep{seed: seed, offered: s.tasks}
	algo := experiment.RTSADS
	if traced {
		r.layers.plan = new(planProbe)
		activePlan.Store(r.layers.plan)
		algo = probePolicy
	}
	heap := watchHeap()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()

	w, err := workload.Generate(s.params(seed))
	if err != nil {
		heap.Stop()
		return nil, simCounts{}, err
	}
	r.gen = time.Since(start)
	cfg := s.simConfig(w, algo)
	simStart := time.Now()
	r.setup = simStart.Sub(start)
	res, err := federation.Simulate(cfg)
	r.run = time.Since(simStart)
	r.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	r.heapMB = heap.Stop()
	r.gcs = rt1.gcCycles - rt0.gcCycles
	r.allocMB = float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20)
	if err != nil {
		return nil, simCounts{}, fmt.Errorf("simulate: %w", err)
	}

	c := res.Combined()
	r.hits = c.Hits
	r.failed = c.LostToFailure
	// The simulator keeps no router-side books apart from its shards, so a
	// Reconcile failure here is a defect of the run itself, not only of
	// the router's reporting.
	r.bookErr = res.Reconcile()
	r.check(r.bookErr == nil, "simulator books: %v", r.bookErr)
	r.check(c.ScheduledMissed == 0, "%d scheduled tasks missed their deadlines in the simulator", c.ScheduledMissed)
	settled := c.Hits + c.Purged + c.ScheduledMissed + c.LostToFailure + c.Shed
	r.check(settled == len(w.Tasks), "%d tasks settled, %d offered", settled, len(w.Tasks))
	if traced {
		l := &r.layers
		l.routed, l.bounced, l.migrated = res.Routed, res.Bounced, res.Migrated
		l.purged, l.schedMissed = c.Purged, c.ScheduledMissed
		l.shedQueueFull, l.shedHopeless = c.ShedQueueFull, c.ShedHopeless
	}
	return r, countsOf(res), nil
}

// observeSim simulates repetition r's seed once more, untimed, with one
// observer per shard, and takes r's guarantee latencies from the `deliver`
// entries the simulator journals. The run must come out as the timed one
// did (counts c): observers only watch.
func (r *rep) observeSim(s spec, c simCounts) error {
	w, err := workload.Generate(s.params(r.seed))
	if err != nil {
		return err
	}
	cfg := s.simConfig(w, experiment.RTSADS)
	for range shards {
		cfg.Obs = append(cfg.Obs, obs.New(journalPerTask*s.tasks))
	}
	res, err := federation.Simulate(cfg)
	if err != nil {
		return fmt.Errorf("observed simulate: %w", err)
	}
	got := countsOf(res)
	r.check(got == c, "seed %d simulated differently with observers: %+v, without %+v", r.seed, got, c)
	for i, o := range cfg.Obs {
		r.check(o.Journal().Evicted() == 0, "shard %d journal evicted %d entries", i, o.Journal().Evicted())
	}
	r.guaranteeMS = guaranteeFromJournals(w, cfg.Obs)
	r.check(len(r.guaranteeMS) == c.hits+c.missed, "journals deliver %d tasks, simulator scheduled %d",
		len(r.guaranteeMS), c.hits+c.missed)
	return nil
}
