package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rtsads/internal/core"
	"rtsads/internal/experiment"
	"rtsads/internal/policy"
)

// probePolicy is the registry name of the measuring RT-SADS planner. A
// shard or simulation configured with this algorithm plans exactly as
// RT-SADS does; the wrapper only watches each PlanPhase from outside.
const probePolicy experiment.Algorithm = "RT-SADS/probe"

// activePlan is the probe the registered factory hands to every planner
// it builds. The policy registry offers no per-build context, so a traced
// repetition installs its probe here before it starts; untraced
// repetitions plan with plain RT-SADS and no probe.
var activePlan atomic.Pointer[planProbe]

func init() {
	inner, ok := policy.Default().Lookup(string(experiment.RTSADS))
	if !ok {
		panic("fedbench: RT-SADS is not registered")
	}
	err := policy.Default().Register(policy.Spec{
		Name:        string(probePolicy),
		Description: "RT-SADS with each phase timed from outside (benchmark probe)",
		New: func(o policy.Options) (core.Planner, error) {
			p, err := inner.New(o)
			if err != nil {
				return nil, err
			}
			probe := activePlan.Load()
			if probe == nil {
				return nil, fmt.Errorf("fedbench: no plan probe installed")
			}
			return &probedPlanner{inner: p, probe: probe}, nil
		},
		Predicate: inner.Predicate,
	})
	if err != nil {
		panic(err)
	}
}

// planProbe accumulates what the planners of one traced repetition did.
// Shards plan concurrently, so every field is guarded by mu.
type planProbe struct {
	mu         sync.Mutex
	phases     int
	busy       time.Duration
	planUS     []float64
	batch      int
	assigned   int
	quantum    time.Duration
	used       time.Duration
	generated  int
	expanded   int
	backtracks int
	deadEnds   int
	expired    int
}

type probedPlanner struct {
	inner core.Planner
	probe *planProbe
}

func (p *probedPlanner) Name() string { return p.inner.Name() }

func (p *probedPlanner) PlanPhase(in core.PhaseInput) (core.PhaseResult, error) {
	batch := len(in.Batch)
	start := time.Now()
	out, err := p.inner.PlanPhase(in)
	took := time.Since(start)
	if err != nil {
		return out, err
	}
	pr := p.probe
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.phases++
	pr.batch += batch
	pr.assigned += len(out.Schedule)
	pr.quantum += out.Quantum
	pr.used += out.Used
	pr.generated += out.Stats.Generated
	pr.expanded += out.Stats.Expanded
	pr.backtracks += out.Stats.Backtracks
	if out.Stats.DeadEnd {
		pr.deadEnds++
	}
	if out.Stats.Expired {
		pr.expired++
	}
	pr.busy += took
	pr.planUS = append(pr.planUS, us(took))
	return out, nil
}

// wireProbe counts one shard connection's traffic as the shard sees it.
type wireProbe struct {
	bytesIn, bytesOut atomic.Int64
	reads, writes     atomic.Int64
	writeBusy         atomic.Int64 // nanoseconds spent inside Write
}

// probedConn is the net.Conn handed to federation.ServeShard in traced
// runs: every Read and Write passes straight through and is counted.
type probedConn struct {
	net.Conn
	probe *wireProbe
}

func (c probedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.probe.reads.Add(1)
	c.probe.bytesIn.Add(int64(n))
	return n, err
}

func (c probedConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.probe.writeBusy.Add(int64(time.Since(start)))
	c.probe.writes.Add(1)
	c.probe.bytesOut.Add(int64(n))
	return n, err
}
