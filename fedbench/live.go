package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"rtsads/internal/experiment"
	"rtsads/internal/federation"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/workload"
)

// journalPerTask sizes each shard observer's journal: a task leaves
// arrival, admit, deliver and one terminal entry on a shard, or arrival and
// bounce, and each phase adds two. Both shards together record under six
// entries per task offered on these workloads, so six per task each leaves
// room for a lopsided split; the run checks that nothing was evicted.
const journalPerTask = 6

// shardSession is one in-process shard server behind a loopback listener.
type shardSession struct {
	ln   net.Listener
	o    *obs.Observer
	errc chan error
}

// serveShard accepts the router's single connection on a fresh loopback
// listener and serves it with federation.ServeShard, reporting the
// session's outcome on errc. In traced runs the connection is wrapped so
// the shard's traffic is counted.
func serveShard(o *obs.Observer, wp *wireProbe) (*shardSession, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &shardSession{ln: ln, o: o, errc: make(chan error, 1)}
	go func() {
		c, err := ln.Accept()
		ln.Close()
		if err != nil {
			s.errc <- fmt.Errorf("accept: %w", err)
			return
		}
		var nc net.Conn = c
		if wp != nil {
			nc = probedConn{Conn: c, probe: wp}
		}
		s.errc <- federation.ServeShard(nc, federation.ServeShardOptions{Obs: o})
	}()
	return s, nil
}

// runLive runs one repetition of a tcp-* workload: a router and two
// in-process ServeShard sessions over loopback TCP, fed on the open-loop
// Poisson schedule. Ground truth comes from each shard's own observer.
func runLive(s spec, seed uint64, traced bool) (*rep, error) {
	// Start from a collected heap, so the previous repetition's garbage is
	// not charged to this one.
	runtime.GC()
	r := &rep{seed: seed, offered: s.tasks}
	var wp *wireProbe
	algo := experiment.RTSADS
	if traced {
		wp = new(wireProbe)
		r.layers.wire = wp
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
		return nil, err
	}
	r.gen = time.Since(start)

	sessions := make([]*shardSession, shards)
	addrs := make([]string, shards)
	for i := range sessions {
		ss, err := serveShard(obs.New(journalPerTask*s.tasks), wp)
		if err != nil {
			for _, prev := range sessions[:i] {
				prev.ln.Close()
				<-prev.errc
			}
			heap.Stop()
			return nil, err
		}
		sessions[i] = ss
		addrs[i] = ss.ln.Addr().String()
	}
	f, err := federation.New(federation.Config{
		Workload:   w,
		Topology:   s.topology(),
		Placement:  federation.AffinityFirst,
		Migrate:    true,
		Algorithm:  algo,
		Scale:      scale,
		Admission:  s.admission(),
		ShardAddrs: addrs,
		// The router's journal holds one route entry per task plus a
		// migrate or route-reject entry per bounce, and each shard bounces
		// a task at most once, so nothing is evicted. The run checks that
		// every route entry survived.
		JournalCap: (1 + shards) * s.tasks,
	})
	var res *federation.Result
	if err == nil {
		runStart := time.Now()
		res, err = f.Run()
		r.run = time.Since(runStart)
	}
	// Run returns once every shard has sent its Bye or been given up for
	// dead. A router that failed before dialling leaves listeners open:
	// closing them ends those sessions too.
	var sessionErrs []error
	for i, ss := range sessions {
		ss.ln.Close()
		if serr := <-ss.errc; serr != nil && err == nil {
			sessionErrs = append(sessionErrs, fmt.Errorf("shard %d session: %w", i, serr))
		}
	}
	r.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	r.heapMB = heap.Stop()
	r.gcs = rt1.gcCycles - rt0.gcCycles
	r.allocMB = float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20)
	if err != nil {
		return nil, fmt.Errorf("federation run: %w", err)
	}
	r.check(len(sessionErrs) == 0, "shard sessions failed: %v", sessionErrs)

	merged, _ := f.MergedEntries()
	var router []obs.Entry
	for _, e := range merged {
		if e.Shard == obs.RouterShard {
			router = append(router, e)
		}
	}
	r.setup = firstRoute(router).Sub(start)
	n := countType(router, "route")
	r.check(n == len(w.Tasks), "router journal holds %d route entries for %d tasks", n, len(w.Tasks))
	r.checkLive(w, res, sessions)
	observers := make([]*obs.Observer, len(sessions))
	for i, ss := range sessions {
		observers[i] = ss.o
	}
	r.guaranteeMS = guaranteeFromJournals(w, observers)
	if traced {
		r.traceLive(w, res, sessions, router)
	}
	return r, nil
}

// firstRoute returns the wall time of the router's first placement.
func firstRoute(router []obs.Entry) time.Time {
	var first time.Time
	for _, e := range router {
		if e.Type == "route" && (first.IsZero() || e.Wall.Before(first)) {
			first = e.Wall
		}
	}
	return first
}

func countType(entries []obs.Entry, typ string) int {
	n := 0
	for i := range entries {
		if entries[i].Type == typ {
			n++
		}
	}
	return n
}

// settledOf sums one registry snapshot's terminal verdicts.
func settledOf(c map[string]int64) int64 {
	return c[obs.MetricHits] + c[obs.MetricPurged] + c[obs.MetricMissed] + c[obs.MetricLost] + c[obs.MetricShed]
}

// checkLive verifies the run against the shards' own observers, which are
// the ground truth: every offered task reached exactly one terminal
// verdict, each shard's arrivals either settled there or bounced away,
// the journals kept everything, and their terminal spans agree with the
// registries. It then compares the router's books with that truth.
func (r *rep) checkLive(w *workload.Workload, res *federation.Result, sessions []*shardSession) {
	var settled, lost int64
	counters := make([]map[string]int64, len(sessions))
	for i, ss := range sessions {
		c := ss.o.Registry().Snapshot()
		counters[i] = c
		settled += settledOf(c)
		lost += c[obs.MetricLost]
		r.hits += int(c[obs.MetricHits])
		got, want := c[obs.MetricArrivals], settledOf(c)+c[obs.MetricBounced]
		r.check(got == want, "shard %d: %d arrivals != %d settled + bounced", i, got, want)
	}
	r.check(settled == int64(len(w.Tasks)), "%d tasks settled on the shards, %d offered", settled, len(w.Tasks))
	unsettled := int64(len(w.Tasks)) - settled
	if unsettled < 0 {
		unsettled = 0
	}
	r.failed = int(lost + unsettled)

	sources := make(map[int][]obs.Entry, len(sessions))
	terminals := 0
	for i, ss := range sessions {
		entries, evicted := ss.o.Journal().Export()
		r.check(evicted == 0, "shard %d journal evicted %d entries", i, evicted)
		sources[i] = entries
		for k := range entries {
			switch entries[k].Type {
			case "exec", "purge", "shed", "lost":
				terminals++
			}
		}
	}
	r.check(int64(terminals) == settled, "%d terminal journal spans, %d settled in the registries", terminals, settled)
	v := obs.SpanViolations(obs.MergeEntries(sources))
	r.check(len(v) == 0, "%d span violations: %v", len(v), v)

	if err := res.Reconcile(); err != nil {
		r.bookErr = err
		return
	}
	for i, s := range res.Shards {
		c := counters[i]
		for name, got := range map[string]int{
			obs.MetricHits:    s.Hits,
			obs.MetricPurged:  s.Purged,
			obs.MetricMissed:  s.ScheduledMissed,
			obs.MetricLost:    s.LostToFailure,
			obs.MetricShed:    s.Shed,
			obs.MetricBounced: s.Bounced,
		} {
			if int64(got) != c[name] {
				r.bookErr = fmt.Errorf("router books shard %d %s=%d, shard registry %d", i, name, got, c[name])
				return
			}
		}
	}
}

// guaranteeFromJournals measures each dispatched task from its due arrival
// to its first deliver entry in a shard journal, on the virtual clock.
func guaranteeFromJournals(w *workload.Workload, observers []*obs.Observer) []float64 {
	first := make(map[int]simtime.Instant)
	for _, o := range observers {
		for _, e := range o.Journal().Snapshot() {
			if e.Type != "deliver" {
				continue
			}
			if at, ok := first[e.Task]; !ok || e.Virtual < at {
				first[e.Task] = e.Virtual
			}
		}
	}
	out := make([]float64, 0, len(first))
	for id, at := range first {
		out = append(out, ms(at.Sub(w.Tasks[id].Arrival)))
	}
	return out
}

// traceLive gathers the per-layer figures of a traced repetition.
func (r *rep) traceLive(w *workload.Workload, res *federation.Result, sessions []*shardSession, router []obs.Entry) {
	l := &r.layers
	l.routed, l.bounced, l.migrated = res.Routed, res.Bounced, res.Migrated
	for _, e := range router {
		if e.Type == "route" {
			l.routeLagMS = append(l.routeLagMS, ms(e.Virtual.Sub(w.Tasks[e.Task].Arrival)))
		}
	}
	sources := make(map[int][]obs.Entry, len(sessions))
	for i, ss := range sessions {
		entries, evicted := ss.o.Journal().Export()
		sources[i] = entries
		l.journalEntries += int64(len(entries))
		l.journalEvicted += evicted
		c := ss.o.Registry().Snapshot()
		l.purged += int(c[obs.MetricPurged])
		l.schedMissed += int(c[obs.MetricMissed])
		l.shedQueueFull += int(c[fmt.Sprintf(obs.MetricShedPattern, "queue-full")])
		l.shedHopeless += int(c[fmt.Sprintf(obs.MetricShedPattern, "hopeless")])
	}
	for _, tt := range obs.AssembleTaskTraces(obs.MergeEntries(sources)) {
		if sa := tt.Slack; sa != nil {
			l.queueWaitMS = append(l.queueWaitMS, ms(sa.QueueWait))
			l.planningMS = append(l.planningMS, ms(sa.Planning))
			l.workerWaitMS = append(l.workerWaitMS, ms(sa.WorkerWait))
			l.execMS = append(l.execMS, ms(sa.Exec))
		}
	}
}
