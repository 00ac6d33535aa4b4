package federation

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/affinity"
	"rtsads/internal/core"
	"rtsads/internal/experiment"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/policy"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// SimConfig configures a deterministic federated simulation: the analytic
// counterpart of the live router, sharing its routing and migration logic
// but advancing a global virtual clock event by event, so runs are
// bit-for-bit reproducible — the form the acceptance tests and the
// throughput benchmark use.
type SimConfig struct {
	// Workload is the global problem instance; Params.Workers must equal
	// Topology.TotalWorkers(). Required.
	Workload *workload.Workload
	// Topology partitions the worker pool. Required.
	Topology Topology
	// Placement selects the routing policy (default affinity-first).
	Placement Placement
	// Migrate enables cross-shard migration of admission rejects.
	Migrate bool
	// Algorithm selects each shard's planner (default RT-SADS).
	Algorithm experiment.Algorithm
	// VertexCost is the virtual scheduling time charged per search vertex
	// (default 1µs — the deterministic model of host scheduling speed).
	VertexCost time.Duration
	// PhaseCost is a fixed virtual scheduling time charged per phase
	// (default 0).
	PhaseCost time.Duration
	// MinAdvance is the minimum clock advance per phase (default 1µs).
	MinAdvance time.Duration
	// Admission configures each shard's gate; the zero value admits
	// everything (rejection then only happens on migration-eligible
	// hopeless/queue-full verdicts when enabled).
	Admission admission.Config
	// Obs, when non-nil, must hold one observer per shard; the simulation
	// mirrors the live cluster's counter semantics into them so registry
	// totals reconcile with the per-shard results.
	Obs []*obs.Observer
	// MaxPhases aborts pathological runs (default 10 million, summed
	// across shards).
	MaxPhases int
	// BatchCap bounds how many same-instant arrivals are placed per routing
	// chunk: each chunk sees one consistent snapshot of the shard views
	// (with the Submitted tie-break updated task by task inside it) and is
	// handed to each destination shard as one batch. Zero means one chunk
	// per same-instant arrival group. Any value produces bit-identical
	// results: between two tasks arriving at the same instant no shard
	// steps, so only Submitted — which the chunk tracks incrementally —
	// distinguishes their view snapshots.
	BatchCap int
	// Transport, when non-nil, intercepts every localized router→shard
	// batch on its way to the shard's inbox. It must return the same tasks
	// (by value) in the same order; the wire differential tests use it to
	// round-trip each batch through the binary shard protocol over a real
	// TCP connection and prove the encoding changes nothing.
	Transport func(shard int, batch []*task.Task) []*task.Task
	// ShardEvents injects deterministic shard lifecycle events on the
	// virtual clock — the analytic model of the live tier's kill→salvage→
	// rejoin machinery. A kill salvages the shard's queued tasks through
	// the migration gate (rescued on a feasible sibling or charged lost to
	// the dead shard) and removes it from placement; a rejoin restores it
	// with idle workers, folding into the same per-shard books exactly as
	// the live router folds a rejoined session. Flap probation is a
	// wall-clock construct and is not modeled here. Events apply in At
	// order (ties keep config order) before same-instant arrivals route.
	ShardEvents []ShardEvent
}

// ShardEventKind names a simulated shard lifecycle transition.
type ShardEventKind string

const (
	// ShardKill marks a shard dead at the event instant: queued tasks are
	// salvaged to feasible siblings or charged lost, and the shard takes
	// no further placements. Tasks the shard had already scheduled keep
	// their verdicts (the analytic model settles work at scheduling time).
	ShardKill ShardEventKind = "kill"
	// ShardRejoin revives a previously killed shard with all workers idle.
	ShardRejoin ShardEventKind = "rejoin"
)

// ShardEvent is one deterministic lifecycle event.
type ShardEvent struct {
	At    simtime.Instant
	Shard int
	Kind  ShardEventKind
}

// simShard is one scheduler domain of the simulation.
type simShard struct {
	id      int
	batch   *task.Batch
	inbox   []*task.Task
	freeAt  []simtime.Instant
	planner core.Planner
	adm     *admission.Controller
	res     *metrics.RunResult
	o       *obs.Observer
	// wakeAt is the next instant this shard must run a scheduling step;
	// Never while its batch is empty (arrivals and migrations wake it).
	wakeAt simtime.Instant
	// dead marks a shard killed by a ShardEvent: zero alive workers in the
	// views, and any task submitted to it is salvaged instead of queued.
	dead bool
	// spare double-buffers the inbox, and loads/scheduled are per-step
	// scratch, so the steady-state step loop stays allocation-free.
	spare     []*task.Task
	loads     []time.Duration
	scheduled []*task.Task
}

// taskArena hands out task slots from chunked backing arrays: the pooled
// storage behind the batched submit path's Localize copies. Slots live for
// the whole run (shards hold them until they settle); reset rewinds the
// arena so a pooled simulation reuses the same chunks run after run. Task
// is pointer-free, so the chunks never cost the garbage collector a scan.
type taskArena struct {
	chunks [][]task.Task
	ci     int // chunk being carved
	used   int // slots used in chunks[ci]
}

const arenaChunk = 256

func (a *taskArena) alloc() *task.Task {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]task.Task, arenaChunk))
	}
	c := a.chunks[a.ci]
	t := &c[a.used]
	if a.used++; a.used == len(c) {
		a.ci++
		a.used = 0
	}
	return t
}

// reset rewinds the arena to its first slot, keeping every chunk. Slots are
// handed out dirty; LocalizeInto overwrites every field.
func (a *taskArena) reset() { a.ci, a.used = 0, 0 }

// simFed is the simulation-side router state, mirroring Federation.
type simFed struct {
	cfg    SimConfig
	tp     Topology
	shards []*simShard

	submitted []int
	perShard  []int
	tried     map[task.ID]map[int]bool
	// orig indexes the router's original tasks by ID for migration
	// reconciliation. Generated workloads use dense IDs 0..n-1, so a slice
	// replaces the map whose per-run refill showed up in setup profiles;
	// out-of-range IDs (hand-built workloads) land in the overflow map.
	orig      []*task.Task
	origOver  map[task.ID]*task.Task
	routedN   int
	migratedN int
	bouncedN  int
	rejectedN int

	// events is the At-sorted lifecycle schedule; eventIdx is the cursor.
	events       []ShardEvent
	eventIdx     int
	salvagedN    int
	salvageLostN int
	rejoinsN     int

	// Batched-admission hot-path state: one reusable view snapshot, one
	// staging buffer per destination shard, an arena for localized task
	// copies, the constant route-span detail (computed once instead of one
	// fmt.Sprintf per task), and a single-task buffer for migrations.
	viewBuf     []ShardView
	stage       [][]*task.Task
	arena       taskArena
	routeDetail string
	single      []*task.Task
	// ceBuf and masks hoist the per-task pick loop's invariants: CE is
	// constant across one view snapshot (Submitted updates don't feed it),
	// and each shard's affinity mask is constant for the whole run.
	ceBuf []time.Duration
	masks []affinity.Set
}

// simPool recycles the simulation's scratch graph — shard structs, batches,
// inboxes, the localized-task arena, the view snapshot — across Simulate
// calls, so parameter sweeps and the throughput benchmark run nearly
// allocation-free once warm. Per-shard results and planners are always
// built fresh: results escape to the caller, and planners carry per-run
// quantum-policy state that must not leak between runs.
var simPool = sync.Pool{New: func() any { return new(simFed) }}

// reset configures the pooled state for one run. Every field is either
// rebuilt from cfg or rewound in place with its storage kept.
func (f *simFed) reset(cfg SimConfig) error {
	f.cfg = cfg
	f.tp = cfg.Topology
	n := cfg.Topology.Shards
	// Unlike the counter slices, shards must keep their contents: the
	// *simShard structs (and everything hanging off them) are the pool's
	// payload.
	if cap(f.shards) < n {
		s := make([]*simShard, n)
		copy(s, f.shards)
		f.shards = s
	} else {
		f.shards = f.shards[:n]
	}
	f.submitted = growSlice(f.submitted, n)
	f.perShard = growSlice(f.perShard, n)
	f.viewBuf = growSlice(f.viewBuf, n)
	f.ceBuf = growSlice(f.ceBuf, n)
	f.masks = growSlice(f.masks, n)
	for i := range f.masks {
		f.masks[i] = affinity.Range(i*f.tp.WorkersPerShard, f.tp.WorkersPerShard)
	}
	if cap(f.stage) < n {
		f.stage = make([][]*task.Task, n)
	}
	f.stage = f.stage[:n]
	for i := range f.stage {
		f.stage[i] = f.stage[i][:0]
	}
	if f.tried == nil {
		f.tried = make(map[task.ID]map[int]bool)
	} else {
		clear(f.tried)
	}
	f.orig = growSlice(f.orig, len(cfg.Workload.Tasks))
	if f.origOver != nil {
		clear(f.origOver)
	}
	for _, t := range cfg.Workload.Tasks {
		if i := int(t.ID); i >= 0 && i < len(f.orig) {
			f.orig[i] = t
		} else {
			if f.origOver == nil {
				f.origOver = make(map[task.ID]*task.Task)
			}
			f.origOver[t.ID] = t
		}
	}
	f.arena.reset()
	f.single = f.single[:0]
	f.routeDetail = "policy=" + cfg.Placement.String()
	f.routedN, f.migratedN, f.bouncedN, f.rejectedN = 0, 0, 0, 0
	f.events = append(f.events[:0], cfg.ShardEvents...)
	sort.SliceStable(f.events, func(a, b int) bool { return f.events[a].At.Before(f.events[b].At) })
	f.eventIdx = 0
	f.salvagedN, f.salvageLostN, f.rejoinsN = 0, 0, 0

	// Every shard shares one communication-cost closure: task affinities are
	// already shard-local by the time a planner sees them, and the cost
	// constant is topology-independent (ShardWorkload keeps Cost verbatim).
	comm := func(t *task.Task, slot int) time.Duration {
		return cfg.Workload.Cost.Cost(t.Affinity, slot)
	}
	for i := range f.shards {
		sh := f.shards[i]
		if sh == nil {
			sh = &simShard{batch: task.NewBatch()}
			f.shards[i] = sh
		}
		scfg := core.SearchConfig{
			Workers:    cfg.Topology.WorkersPerShard,
			Comm:       comm,
			VertexCost: cfg.VertexCost,
			PhaseCost:  cfg.PhaseCost,
			Policy:     core.NewAdaptive(),
		}
		planner, err := buildSimPlanner(cfg.Algorithm, scfg)
		if err != nil {
			return err
		}
		var adm *admission.Controller
		if cfg.Admission.Enabled() {
			if adm, err = admission.New(cfg.Admission); err != nil {
				return fmt.Errorf("federation: %w", err)
			}
		}
		var o *obs.Observer
		if cfg.Obs != nil {
			o = cfg.Obs[i]
		}
		sh.id = i
		sh.batch.Reset()
		sh.inbox = sh.inbox[:0]
		sh.spare = sh.spare[:0]
		sh.scheduled = sh.scheduled[:0]
		sh.freeAt = growSlice(sh.freeAt, cfg.Topology.WorkersPerShard)
		sh.loads = growSlice(sh.loads, cfg.Topology.WorkersPerShard)
		sh.planner = planner
		sh.adm = adm
		sh.res = &metrics.RunResult{
			Algorithm:  planner.Name() + "/sim",
			Workers:    cfg.Topology.WorkersPerShard,
			WorkerBusy: make([]time.Duration, cfg.Topology.WorkersPerShard),
		}
		sh.o = o
		sh.wakeAt = simtime.Never
		sh.dead = false
		o.SetWorkers(cfg.Topology.WorkersPerShard)
	}
	return nil
}

// release detaches the caller-visible outputs and returns the scratch graph
// to the pool. Error paths skip release and let the GC take the state.
func (f *simFed) release() {
	for _, sh := range f.shards {
		sh.planner = nil
		sh.adm = nil
		sh.res = nil
		sh.o = nil
	}
	f.cfg = SimConfig{}
	simPool.Put(f)
}

// growSlice returns s resized to n zeroed elements, reallocating only when
// the capacity does not suffice.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Simulate runs the federated workload to completion on virtual time and
// returns the per-shard results plus the router's counters. Identical
// configurations always produce identical results.
func Simulate(cfg SimConfig) (*Result, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("federation: Workload is required")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if got, want := cfg.Workload.Params.Workers, cfg.Topology.TotalWorkers(); got != want {
		return nil, fmt.Errorf("federation: workload has %d workers but topology needs %d", got, want)
	}
	if cfg.Algorithm == "" {
		cfg.Algorithm = experiment.RTSADS
	}
	if cfg.VertexCost <= 0 {
		cfg.VertexCost = time.Microsecond
	}
	if cfg.MinAdvance <= 0 {
		cfg.MinAdvance = time.Microsecond
	}
	if cfg.MaxPhases <= 0 {
		cfg.MaxPhases = 10_000_000
	}
	if cfg.Obs != nil && len(cfg.Obs) != cfg.Topology.Shards {
		return nil, fmt.Errorf("federation: %d observers for %d shards", len(cfg.Obs), cfg.Topology.Shards)
	}
	if err := cfg.Admission.Validate(); err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	for i, e := range cfg.ShardEvents {
		if e.Shard < 0 || e.Shard >= cfg.Topology.Shards {
			return nil, fmt.Errorf("federation: shard event %d targets shard %d of %d", i, e.Shard, cfg.Topology.Shards)
		}
		if e.Kind != ShardKill && e.Kind != ShardRejoin {
			return nil, fmt.Errorf("federation: shard event %d has unknown kind %q", i, e.Kind)
		}
	}

	f := simPool.Get().(*simFed)
	if err := f.reset(cfg); err != nil {
		return nil, err
	}

	tasks := cfg.Workload.Tasks // sorted by arrival
	now := simtime.Instant(0)
	next := 0
	totalPhases := 0
	for {
		// Lifecycle events apply first, so same-instant arrivals route
		// against the post-event shard set (a killed shard takes none of
		// them; a rejoined shard is immediately placeable).
		f.applyEvents(now)
		// All arrivals due at this instant form one batch: no shard steps
		// between them, so a single view snapshot (per BatchCap chunk)
		// places them exactly as per-task routing would.
		if start := next; start < len(tasks) && !tasks[start].Arrival.After(now) {
			for next < len(tasks) && !tasks[next].Arrival.After(now) {
				next++
			}
			f.routeBatch(tasks[start:next], now)
		}
		// Step every due shard; migrations refill sibling inboxes at the
		// same instant, so iterate until the round is quiet. Each planning
		// step pushes the shard's wakeAt strictly past now, and migration
		// chains are bounded by the per-task tried sets, so the inner loop
		// terminates.
		for {
			stepped := false
			for _, sh := range f.shards {
				if len(sh.inbox) == 0 && (sh.wakeAt == simtime.Never || sh.wakeAt.After(now)) {
					continue
				}
				if err := sh.step(f, now); err != nil {
					return nil, err
				}
				totalPhases = 0
				for _, s := range f.shards {
					totalPhases += s.res.Phases
				}
				if totalPhases > cfg.MaxPhases {
					return nil, fmt.Errorf("federation: exceeded %d phases at %s", cfg.MaxPhases, now)
				}
				stepped = true
			}
			if !stepped {
				break
			}
		}
		event := simtime.Never
		if next < len(tasks) {
			event = tasks[next].Arrival
		}
		if f.eventIdx < len(f.events) {
			event = event.Min(f.events[f.eventIdx].At)
		}
		for _, sh := range f.shards {
			event = event.Min(sh.wakeAt)
		}
		if event == simtime.Never {
			break // no arrivals, no pending work: workers just drain
		}
		now = event
	}

	res := &Result{
		Topology:       f.tp,
		Placement:      cfg.Placement,
		Shards:         make([]*metrics.RunResult, len(f.shards)),
		Routed:         f.routedN,
		Migrated:       f.migratedN,
		Bounced:        f.bouncedN,
		Rejected:       f.rejectedN,
		Salvaged:       f.salvagedN,
		SalvageLost:    f.salvageLostN,
		Rejoins:        f.rejoinsN,
		PerShardRouted: append([]int(nil), f.perShard...),
	}
	for i, sh := range f.shards {
		res.Shards[i] = sh.res
		if sh.o != nil {
			// The method is nil-receiver-safe, but rendering its argument
			// is not free: skip the summary formatting entirely when nobody
			// observes it (the benchmark path).
			sh.o.RunEnd(now, sh.res.String())
		}
	}
	f.release()
	return res, nil
}

// routeBatch places a group of same-instant arrivals, BatchCap tasks at a
// time, mirroring the live router's SubmitBatch path.
func (f *simFed) routeBatch(ts []*task.Task, now simtime.Instant) {
	for len(ts) > 0 {
		n := len(ts)
		if f.cfg.BatchCap > 0 && n > f.cfg.BatchCap {
			n = f.cfg.BatchCap
		}
		f.routeChunk(ts[:n], now)
		ts = ts[n:]
	}
}

// routeChunk places one bounded chunk against a single consistent snapshot
// of the shard views, staging the localized tasks per destination shard and
// handing each shard its sub-batch in one append. Batch order is submit
// order; the Submitted tie-break advances task by task inside the snapshot,
// so the decisions are bit-identical to per-task routing.
func (f *simFed) routeChunk(ts []*task.Task, now simtime.Instant) {
	views := f.refreshViews(now)
	// The pick loop below is Placement.Pick with its per-task invariants
	// hoisted: CE is evaluated once per snapshot instead of inside every
	// prefers comparison, and the overlap popcount uses the precomputed
	// shard masks. It must order candidates exactly like Pick+prefers —
	// the batched-submission differential tests pin that equivalence.
	ce := f.ceBuf
	for i := range views {
		ce[i] = views[i].CE()
	}
	affFirst := f.cfg.Placement == AffinityFirst
	fused := f.cfg.Placement == AffinityFirst || f.cfg.Placement == LeastCE
	for _, t := range ts {
		s := -1
		if fused {
			bestOv := 0
			for i := range views {
				if !views[i].Eligible() {
					continue
				}
				ov := 0
				if affFirst {
					ov = (t.Affinity & f.masks[i]).Count()
				}
				switch {
				case s < 0:
				case affFirst && ov != bestOv:
					if ov <= bestOv {
						continue
					}
				case ce[i] != ce[s]:
					if ce[i] >= ce[s] {
						continue
					}
				case views[i].Submitted >= views[s].Submitted:
					continue
				}
				s, bestOv = i, ov
			}
		} else {
			for i := range views {
				views[i].Overlap = f.tp.Overlap(t, i)
			}
			s = f.cfg.Placement.Pick(t, views, nil)
		}
		if s < 0 {
			s = 0
		}
		f.routedN++
		f.perShard[s]++
		f.submitted[s]++
		views[s].Submitted++
		// The sim has no router journal; the placement span lands in the
		// destination shard's journal so merged lifecycles stay complete.
		f.shards[s].o.Route(t.ID, s, f.routeDetail, now)
		f.stage[s] = append(f.stage[s], f.localize(t, s))
	}
	for s := range f.stage {
		if len(f.stage[s]) > 0 {
			f.submit(s, f.stage[s], now)
			f.stage[s] = f.stage[s][:0]
		}
	}
}

// localize copies a (global) task into the shard's local frame using
// arena-backed storage.
func (f *simFed) localize(g *task.Task, s int) *task.Task {
	lt := f.arena.alloc()
	LocalizeInto(lt, g, f.tp, s)
	return lt
}

// submit hands one localized batch to a shard's inbox, through the wire
// transport when one is configured. A dead shard (every shard dead, so the
// fallback placement still charged it) takes the batch onto its books and
// immediately salvages each task — the analytic mirror of the live
// router's failed-submit salvage.
func (f *simFed) submit(s int, batch []*task.Task, now simtime.Instant) {
	if f.cfg.Transport != nil {
		batch = f.cfg.Transport(s, batch)
	}
	sh := f.shards[s]
	if sh.dead {
		for _, t := range batch {
			sh.res.Total++
			sh.o.Arrival(t.ID, now, t.Deadline)
			f.salvage(sh, t, now)
		}
		return
	}
	sh.inbox = append(sh.inbox, batch...)
}

// original returns the router's original (pre-localization) task with the
// given ID, or nil when unknown.
func (f *simFed) original(id task.ID) *task.Task {
	if i := int(id); i >= 0 && i < len(f.orig) {
		return f.orig[i]
	}
	return f.origOver[id]
}

// reject handles one shard-side admission rejection: migrate when a
// feasible sibling exists, shed locally otherwise — the same bookkeeping
// as livecluster's bounce accounting plus Federation.onRejectBatch.
func (f *simFed) reject(from *simShard, t *task.Task, reason admission.Reason, now simtime.Instant) {
	f.bouncedN++
	if f.migrateSim(from.id, t.ID, string(reason), now) {
		from.res.Bounced++
		from.o.Bounce(t.ID, string(reason), now)
		return
	}
	f.rejectedN++
	from.o.RouteReject(t.ID, string(reason), now)
	from.res.Shed++
	switch reason {
	case admission.Hopeless:
		from.res.ShedHopeless++
	case admission.QueueFull:
		from.res.ShedQueueFull++
	case admission.Infeasible:
		from.res.ShedInfeasible++
	}
	from.o.Shed(t.ID, string(reason), now)
}

// migrateSim re-offers one task to the best feasible sibling of shard
// from, mirroring Federation.migrateLocked. Returns true when a sibling
// accepted it.
func (f *simFed) migrateSim(from int, id task.ID, reason string, now simtime.Instant) bool {
	if !f.cfg.Migrate {
		return false
	}
	g := f.original(id)
	if g == nil {
		return false
	}
	tried := f.tried[id]
	if tried == nil {
		tried = make(map[int]bool, f.tp.Shards)
		f.tried[id] = tried
	}
	tried[from] = true
	views := f.viewsFor(g, now)
	s := f.cfg.Placement.Pick(g, views, func(i int) bool {
		return i != from && !tried[i] && views[i].Feasible(g, now)
	})
	if s < 0 {
		return false
	}
	tried[s] = true
	f.submitted[s]++
	f.migratedN++
	if o := f.shards[s].o; o != nil {
		o.Migrate(g.ID, s,
			fmt.Sprintf("from shard %d, reason %s, §4.3 re-verdict feasible", from, reason), now)
	}
	f.submit(s, append(f.single[:0], f.localize(g, s)), now)
	return true
}

// salvage re-routes one task off a dead shard through the migration gate:
// rescued on a feasible sibling (counted a bounce+migration, so every
// accounting identity holds unchanged) or charged lost to the dead shard —
// only tasks that provably cannot make their deadline anywhere are lost.
func (f *simFed) salvage(from *simShard, t *task.Task, now simtime.Instant) {
	f.bouncedN++
	if f.migrateSim(from.id, t.ID, "shard-death", now) {
		f.salvagedN++
		from.res.Bounced++
		from.o.Bounce(t.ID, "shard-death", now)
		return
	}
	f.rejectedN++
	f.salvageLostN++
	from.o.RouteReject(t.ID, "shard-death", now)
	from.res.LostToFailure++
	from.o.Lost(t.ID, -1, now)
}

// applyEvents fires every lifecycle event due at the instant, in schedule
// order. Kills are idempotent (a dead shard stays dead) and rejoins only
// revive dead shards.
func (f *simFed) applyEvents(now simtime.Instant) {
	for f.eventIdx < len(f.events) && !f.events[f.eventIdx].At.After(now) {
		e := f.events[f.eventIdx]
		f.eventIdx++
		sh := f.shards[e.Shard]
		switch e.Kind {
		case ShardKill:
			if !sh.dead {
				f.killShard(sh, now)
			}
		case ShardRejoin:
			if sh.dead {
				sh.dead = false
				f.rejoinsN++
				// A restarted process comes back with idle workers: the
				// dead shard's queued commitments were salvaged at the
				// kill, and its in-flight work settled at scheduling time.
				for k := range sh.freeAt {
					sh.freeAt[k] = now
				}
			}
		}
	}
}

// killShard marks a shard dead and salvages everything it still held: the
// unabsorbed inbox (absorbed onto its books first, so the dead shard is
// charged with every task it was handed) and the admitted-but-unscheduled
// batch. Scheduled tasks keep their verdicts — the analytic model settles
// work at scheduling time, so a kill only strands queued tasks.
func (f *simFed) killShard(sh *simShard, now simtime.Instant) {
	sh.dead = true
	in := sh.inbox
	sh.inbox = sh.inbox[:0]
	for _, t := range in {
		sh.res.Total++
		sh.o.Arrival(t.ID, now, t.Deadline)
		f.salvage(sh, t, now)
	}
	for _, t := range sh.batch.Tasks() {
		f.salvage(sh, t, now)
	}
	sh.batch.Reset()
	sh.wakeAt = simtime.Never
}

// refreshViews rebuilds the task-independent part of every shard's view
// (worker state and the Submitted counters) into the reusable snapshot
// buffer. The per-task fields (Overlap, Comm) are filled by the caller.
func (f *simFed) refreshViews(now simtime.Instant) []ShardView {
	views := f.viewBuf
	for i, sh := range f.shards {
		if sh.dead {
			views[i] = ShardView{Submitted: f.submitted[i]}
			continue
		}
		minFree := simtime.Never
		var queued time.Duration
		for _, fr := range sh.freeAt {
			fr = fr.Max(now)
			queued += fr.Sub(now)
			minFree = minFree.Min(fr)
		}
		views[i] = ShardView{
			Alive:      len(sh.freeAt),
			RQs:        simtime.NonNeg(minFree.Sub(now)),
			QueuedWork: queued,
			Submitted:  f.submitted[i],
		}
	}
	return views
}

// viewsFor projects every shard's current state onto one task — the
// single-task (migration) form of the snapshot.
func (f *simFed) viewsFor(t *task.Task, now simtime.Instant) []ShardView {
	views := f.refreshViews(now)
	for i := range views {
		ov := f.tp.Overlap(t, i)
		views[i].Overlap = ov
		if ov == 0 {
			views[i].Comm = f.cfg.Workload.Cost.Remote
		}
	}
	return views
}

// step runs one scheduling iteration of a shard at the global instant:
// absorb the inbox through the admission gate, purge missed tasks, plan a
// phase, and deliver the schedule analytically — the machine package's
// loop body, per shard.
func (sh *simShard) step(f *simFed, now simtime.Instant) error {
	// Double-buffer the inbox: rejections inside the admit loop can refill
	// sibling inboxes (never this shard's own — migration excludes the
	// rejecting shard), and the swap keeps the absorb loop allocation-free.
	in := sh.inbox
	sh.inbox = sh.spare[:0]
	for _, t := range in {
		sh.res.Total++
		sh.o.Arrival(t.ID, now, t.Deadline)
		sh.admit(f, t, now)
	}
	sh.spare = in[:0]
	for _, t := range sh.batch.PurgeMissed(now) {
		sh.res.Purged++
		sh.o.Purge(t.ID, now)
	}
	if sh.batch.Len() == 0 {
		sh.wakeAt = simtime.Never
		return nil
	}

	if sh.loads == nil {
		sh.loads = make([]time.Duration, len(sh.freeAt))
	}
	loads := sh.loads
	for k, fr := range sh.freeAt {
		loads[k] = simtime.NonNeg(fr.Sub(now))
	}
	sh.o.PhaseStart(sh.res.Phases, sh.batch.Len(), now)
	out, err := sh.planner.PlanPhase(core.PhaseInput{Now: now, Batch: sh.batch.Tasks(), Loads: loads})
	if err != nil {
		return fmt.Errorf("federation: shard %d phase %d: %w", sh.id, sh.res.Phases, err)
	}
	sh.o.PhaseEnd(sh.res.Phases, now.Add(out.Used), obs.PhaseStats{
		Quantum:          out.Quantum,
		Used:             out.Used,
		Generated:        out.Stats.Generated,
		Backtracks:       out.Stats.Backtracks,
		DeadEnd:          out.Stats.DeadEnd,
		Expired:          out.Stats.Expired,
		Expanded:         out.Stats.Expanded,
		Duplicates:       out.Stats.Duplicates,
		Steals:           out.Stats.Steals,
		FramesSpawned:    out.Stats.FramesSpawned,
		FramesSettled:    out.Stats.FramesSettled,
		FrontierPeak:     out.Stats.FrontierPeak,
		IncumbentUpdates: out.Stats.IncumbentUpdates,
	})
	sh.res.Phases++
	sh.res.SchedulingTime += out.Used
	sh.res.VerticesGenerated += out.Stats.Generated
	sh.res.Backtracks += out.Stats.Backtracks
	if out.Stats.DeadEnd {
		sh.res.DeadEnds++
	}
	if out.Stats.Expired {
		sh.res.QuantaExpired++
	}

	deliver := now.Add(simtime.MaxDur(out.Used, f.cfg.MinAdvance))
	scheduled := sh.scheduled[:0]
	for _, a := range out.Schedule {
		start := deliver.Max(sh.freeAt[a.Proc])
		actual := a.Task.ActualProc() + a.Comm
		finish := start.Add(actual)
		sh.freeAt[a.Proc] = finish
		sh.res.WorkerBusy[a.Proc] += actual
		sh.res.Response.Add(finish.Sub(a.Task.Arrival))
		if finish.After(sh.res.Makespan) {
			sh.res.Makespan = finish
		}
		hit := !finish.After(a.Task.Deadline)
		if hit {
			sh.res.Hits++
		} else {
			sh.res.ScheduledMissed++
		}
		scheduled = append(scheduled, a.Task)
		sh.o.Deliver(sh.res.Phases-1, a.Task.ID, a.Proc, a.Comm, deliver)
		sh.o.Exec(a.Task.ID, a.Proc, start, finish, hit,
			finish.Sub(a.Task.Arrival), a.Task.Deadline.Sub(finish))
	}
	sh.batch.RemoveScheduled(scheduled)
	sh.scheduled = scheduled[:0]

	if len(out.Schedule) > 0 {
		sh.wakeAt = deliver
		return nil
	}
	// Nothing feasible right now: skip to the earliest event that can
	// change the picture — a worker freeing up or a purge point (the batch
	// is non-empty, so one always exists; arrivals wake the shard
	// separately).
	event := simtime.Never
	for _, fr := range sh.freeAt {
		if fr.After(deliver) {
			event = event.Min(fr)
		}
	}
	for _, t := range sh.batch.Tasks() {
		event = event.Min(t.Deadline.Add(-t.Proc + 1))
	}
	sh.wakeAt = deliver.Max(event)
	return nil
}

// admit runs one inbox task through the shard's gate into its batch.
func (sh *simShard) admit(f *simFed, t *task.Task, now simtime.Instant) {
	d := sh.adm.Admit(t, now, sh.batch.Tasks())
	if !d.Admit {
		f.reject(sh, t, d.Reason, now)
		return
	}
	if d.Victim != nil {
		sh.batch.RemoveScheduled([]*task.Task{d.Victim})
		f.reject(sh, d.Victim, admission.QueueFull, now)
	}
	sh.res.Admitted++
	sh.o.Admitted(t.ID, t.Deadline.Sub(now), now)
	sh.batch.Add(t)
}

// buildSimPlanner delegates to the policy registry, like livecluster.
func buildSimPlanner(a experiment.Algorithm, scfg core.SearchConfig) (core.Planner, error) {
	p, err := policy.Default().New(string(a), policy.Options{Search: scfg})
	if err != nil {
		return nil, fmt.Errorf("federation: %w", err)
	}
	return p, nil
}
