package federation

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/core"
	"rtsads/internal/experiment"
	"rtsads/internal/faultinject"
	"rtsads/internal/federation/wire"
	"rtsads/internal/livecluster"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// Config configures a live federated run.
type Config struct {
	// Workload is the global problem instance; its Params.Workers must
	// equal Topology.TotalWorkers(). Required.
	Workload *workload.Workload
	// Topology partitions the worker pool. Required.
	Topology Topology
	// Placement selects the routing policy (default affinity-first).
	Placement Placement
	// Migrate enables deadline-safe cross-shard migration of rejected
	// tasks; without it every shard rejection is shed locally.
	Migrate bool

	// Algorithm, Scale, Liveness, Admission, Backpressure, SlackGuard,
	// Degrade and the Parallel/StealDepth/FrontierCap/DupCap search knobs
	// configure every shard identically; see livecluster.Config. Faults is
	// a global plan split by worker range across the shards.
	Algorithm    experiment.Algorithm
	Scale        float64
	Faults       *faultinject.Plan
	Liveness     livecluster.Liveness
	Admission    admission.Config
	Backpressure int
	SlackGuard   time.Duration
	Degrade      *core.DegradeConfig
	Parallel     int
	StealDepth   int
	FrontierCap  int
	DupCap       int

	// JournalCap bounds each shard's journal (see obs.NewJournal).
	JournalCap int
	// SettleTimeout bounds the wall-clock wait for every task to reach a
	// terminal bucket after the last submission (default 2 minutes); on
	// expiry the run is sealed anyway and Reconcile reports the imbalance.
	SettleTimeout time.Duration

	// BatchCap bounds how many due arrivals the router places per batched
	// routing decision (one view snapshot per batch). Zero means
	// unbounded: everything due at an instant routes against one snapshot.
	BatchCap int
	// ShardAddrs, when non-empty, runs every shard out of process: the
	// router dials one shard server (rtcluster -shard-listen) per address
	// and drives it over the federation wire protocol instead of building
	// in-process clusters. Length must equal Topology.Shards. Fault plans
	// inject into in-process shards only; with ShardAddrs, kill the shard
	// process itself (the chaos suite does exactly that).
	ShardAddrs []string
	// Recovery tunes the shard-death machinery: salvage always runs, and
	// Recovery.Rejoin additionally redials a dead shard's address so a
	// restarted process can re-handshake and serve placements again.
	Recovery Recovery
}

// Recovery configures the shard lifecycle state machine (Up → Suspect →
// Down → Rejoining) the router drives for out-of-process shards.
type Recovery struct {
	// Rejoin enables restart/rejoin: after a session loss the router keeps
	// redialling the shard's address with capped jittered backoff and
	// replays a Rejoin hello when the process comes back. Requires
	// ShardAddrs (an in-process shard has no process to restart).
	Rejoin bool
	// MaxRejoins bounds how many times one shard may rejoin (default 4).
	MaxRejoins int
	// RedialAttempts bounds dials per rejoin (default 8).
	RedialAttempts int
	// RedialBackoff is the first redial delay (default: the liveness
	// RedialBackoff); RedialCap caps the doubling (default 2s).
	RedialBackoff time.Duration
	RedialCap     time.Duration
	// SuspectAfter quarantines a shard from placement when its frames go
	// stale this long without the session dying — reversible, unlike a
	// death (default 3× the liveness heartbeat).
	SuspectAfter time.Duration
	// FlapWindow, FlapThreshold and Probation are the flap hysteresis: a
	// shard dying FlapThreshold times within FlapWindow rejoins on
	// probation — alive and settling its own work, but quarantined from
	// placement for Probation so a flapping shard cannot thrash
	// migrations (defaults 10s / 3 / 2s).
	FlapWindow    time.Duration
	FlapThreshold int
	Probation     time.Duration
}

// withDefaults resolves the recovery knobs against the session's resolved
// liveness settings.
func (r Recovery) withDefaults(live livecluster.Liveness) Recovery {
	if r.MaxRejoins <= 0 {
		r.MaxRejoins = 4
	}
	if r.RedialAttempts <= 0 {
		r.RedialAttempts = 8
	}
	if r.RedialBackoff <= 0 {
		r.RedialBackoff = live.RedialBackoff
	}
	if r.RedialCap <= 0 {
		r.RedialCap = 2 * time.Second
	}
	if r.SuspectAfter <= 0 {
		r.SuspectAfter = 3 * live.HeartbeatEvery
	}
	if r.FlapWindow <= 0 {
		r.FlapWindow = 10 * time.Second
	}
	if r.FlapThreshold <= 0 {
		r.FlapThreshold = 3
	}
	if r.Probation <= 0 {
		r.Probation = 2 * time.Second
	}
	return r
}

// shardHandle is one scheduler shard as the router sees it: in-process
// (localShard) or a remote process behind the wire protocol (remoteShard).
type shardHandle interface {
	// SubmitBatch hands the shard a localized batch in order.
	SubmitBatch(ts []*task.Task) error
	// LoadSummary is the shard's latest load snapshot.
	LoadSummary() livecluster.Summary
	// Counters is the shard's latest registry snapshot (rtsads_* families).
	Counters() map[string]int64
	// SettledTasks counts the shard's tasks whose fate is decided. For a
	// dead remote shard every routed task counts: they are lost, which is
	// a settled fate.
	SettledTasks() int64
	// Seal closes the shard's feed.
	Seal()
	// Wait blocks until the shard's run completes and returns its result.
	Wait() (*metrics.RunResult, error)
	// Journal exports the shard's journal entries and eviction count.
	Journal() ([]obs.Entry, int64)
	// Placeable reports whether the router may place new work here right
	// now. A shard can be alive but not placeable — suspected stale or on
	// flap probation — in which case it keeps settling the work it has
	// while the router quarantines it from new placements.
	Placeable() bool
}

// localShard wraps an in-process cluster and its observer.
type localShard struct {
	cl   *livecluster.Cluster
	o    *obs.Observer
	res  *metrics.RunResult
	err  error
	done chan struct{}
}

// start launches the cluster's run; failed receives the shard index on a
// run error so the router can abort its pump.
func (s *localShard) start(i int, failed chan<- int) {
	go func() {
		s.res, s.err = s.cl.Run()
		if s.err != nil {
			failed <- i
		}
		close(s.done)
	}()
}

func (s *localShard) SubmitBatch(ts []*task.Task) error { return s.cl.SubmitBatch(ts) }
func (s *localShard) Placeable() bool                   { return true }
func (s *localShard) LoadSummary() livecluster.Summary  { return s.cl.LoadSummary() }
func (s *localShard) Counters() map[string]int64        { return s.o.Registry().Snapshot() }
func (s *localShard) Seal()                             { s.cl.Seal() }
func (s *localShard) Journal() ([]obs.Entry, int64)     { return s.o.Journal().Export() }
func (s *localShard) Wait() (*metrics.RunResult, error) {
	<-s.done
	return s.res, s.err
}

func (s *localShard) SettledTasks() int64 {
	return settledFromCounters(s.Counters())
}

// settledFromCounters sums the non-bounce terminal counters of one shard
// registry snapshot.
func settledFromCounters(snap map[string]int64) int64 {
	return snap[obs.MetricHits] + snap[obs.MetricPurged] + snap[obs.MetricMissed] +
		snap[obs.MetricLost] + snap[obs.MetricShed]
}

// Federation runs N live scheduler shards behind one router. Build with
// New, run once with Run; the metrics handler (http.go) can be attached
// any time after New.
type Federation struct {
	cfg Config
	tp  Topology

	obsShards []*obs.Observer
	faults    []*faultinject.Plan
	// journal records the router's own lifecycle spans (route, migrate,
	// route-reject); MergedEntries folds it into the shard journals with
	// the RouterShard tag.
	journal *obs.Journal
	// routeDetail is the Detail of every route entry, built once.
	routeDetail string

	reg         *obs.Registry
	routed      *obs.Counter
	migrated    *obs.Counter
	bounced     *obs.Counter
	rejected    *obs.Counter
	salvaged    *obs.Counter
	salvageLost *obs.Counter
	rejoinsC    *obs.Counter
	quarantines *obs.Counter
	routedBy    []*obs.Counter

	clock   *livecluster.Clock
	shards  []*livecluster.Cluster
	handles []shardHandle

	// mu serialises routing decisions (first placements and migrations)
	// so the Submitted tie-break and the tried sets stay consistent. Lock
	// order: mu before any cluster lock; clusters never call back into the
	// router while holding their own locks.
	mu        sync.Mutex
	submitted []int
	perShard  []int
	// bounces counts each shard's accepted bounces (rejects the router
	// re-placed) — the router-side ground truth a dead remote shard's
	// synthesized books use in place of its stale last counter snapshot.
	bounces   []int
	tried     map[task.ID]map[int]bool
	orig      map[task.ID]*task.Task
	routedN   int
	migratedN int
	bouncedN  int
	rejectedN int
	// salvagedIDs marks tasks the router already re-placed off a dead
	// shard, so the two salvage paths (session-loss recovery and a failed
	// stray submit) can never both place the same task.
	salvagedIDs  map[task.ID]bool
	salvagedN    int
	salvageLostN int
	rejoinsN     int

	// stage and viewBuf are the batched pump's reusable scratch: one
	// staging slice per destination shard and one view snapshot, refilled
	// per routing batch under mu.
	stage   [][]*task.Task
	viewBuf []ShardView
}

// New validates the configuration and builds the federation: per-shard
// observers, the router's own registry, and the split fault plans. The
// shard clusters themselves are created by Run, on a shared clock.
func New(cfg Config) (*Federation, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("federation: Workload is required")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if got, want := cfg.Workload.Params.Workers, cfg.Topology.TotalWorkers(); got != want {
		return nil, fmt.Errorf("federation: workload has %d workers but topology needs %d", got, want)
	}
	switch cfg.Placement {
	case AffinityFirst, LeastCE, Hashed:
	default:
		return nil, fmt.Errorf("federation: unknown placement %v", cfg.Placement)
	}
	if cfg.Scale == 0 {
		cfg.Scale = 20
	}
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("federation: Scale %v must be positive", cfg.Scale)
	}
	if cfg.SettleTimeout <= 0 {
		cfg.SettleTimeout = 2 * time.Minute
	}
	if cfg.BatchCap < 0 {
		return nil, fmt.Errorf("federation: BatchCap %d must be non-negative", cfg.BatchCap)
	}
	if n := len(cfg.ShardAddrs); n > 0 {
		if n != cfg.Topology.Shards {
			return nil, fmt.Errorf("federation: %d shard addresses for %d shards", n, cfg.Topology.Shards)
		}
		if cfg.Faults != nil && !cfg.Faults.Empty() {
			return nil, fmt.Errorf("federation: fault plans inject into in-process shards; with ShardAddrs kill the shard process instead")
		}
	} else if cfg.Recovery.Rejoin {
		return nil, fmt.Errorf("federation: Recovery.Rejoin needs ShardAddrs; an in-process shard has no process to restart")
	}
	faults, err := SplitFaults(cfg.Faults, cfg.Topology)
	if err != nil {
		return nil, err
	}
	f := &Federation{
		cfg:         cfg,
		tp:          cfg.Topology,
		faults:      faults,
		reg:         obs.NewRegistry(),
		submitted:   make([]int, cfg.Topology.Shards),
		perShard:    make([]int, cfg.Topology.Shards),
		bounces:     make([]int, cfg.Topology.Shards),
		tried:       make(map[task.ID]map[int]bool),
		orig:        make(map[task.ID]*task.Task, len(cfg.Workload.Tasks)),
		salvagedIDs: make(map[task.ID]bool),
		journal:     obs.NewJournal(cfg.JournalCap),
		routeDetail: fmt.Sprintf("policy=%s", cfg.Placement),
	}
	for _, t := range cfg.Workload.Tasks {
		f.orig[t.ID] = t
	}
	f.routed = f.reg.Counter(MetricRouted)
	f.migrated = f.reg.Counter(MetricMigrated)
	f.bounced = f.reg.Counter(MetricBounced)
	f.rejected = f.reg.Counter(MetricRejected)
	f.salvaged = f.reg.Counter(MetricSalvaged)
	f.salvageLost = f.reg.Counter(MetricSalvageLost)
	f.rejoinsC = f.reg.Counter(MetricRejoins)
	f.quarantines = f.reg.Counter(MetricQuarantines)
	f.reg.Gauge(MetricShards).Set(int64(cfg.Topology.Shards))
	f.routedBy = make([]*obs.Counter, cfg.Topology.Shards)
	f.obsShards = make([]*obs.Observer, cfg.Topology.Shards)
	for i := range f.routedBy {
		f.routedBy[i] = f.reg.Counter(fmt.Sprintf(MetricRoutedShardPattern, i))
		f.obsShards[i] = obs.New(cfg.JournalCap)
	}
	return f, nil
}

// Topology returns the federation's worker partition.
func (f *Federation) Topology() Topology { return f.tp }

// Registry returns the router's own metric registry.
func (f *Federation) Registry() *obs.Registry { return f.reg }

// ShardObserver returns shard i's observer (its registry carries the
// standard rtsads_* families, exposed with a shard label by the handler).
func (f *Federation) ShardObserver(i int) *obs.Observer { return f.obsShards[i] }

// Run executes the workload across the shards: it builds one handle per
// shard on a shared virtual clock (in-process clusters, or wire sessions
// to remote shard processes when ShardAddrs is set), replays the global
// arrival sequence through the router in batched routing decisions, waits
// until every task has reached a terminal bucket, then seals the shards
// and collects their results.
func (f *Federation) Run() (*Result, error) {
	clock, err := livecluster.NewClock(f.cfg.Scale)
	if err != nil {
		return nil, err
	}
	f.clock = clock

	handles := make([]shardHandle, f.tp.Shards)
	f.stage = make([][]*task.Task, f.tp.Shards)
	failed := make(chan int, f.tp.Shards)
	if len(f.cfg.ShardAddrs) > 0 {
		for i, addr := range f.cfg.ShardAddrs {
			rs, err := f.dialShard(i, addr)
			if err != nil {
				for _, h := range handles {
					if h != nil {
						h.Seal()
					}
				}
				return nil, fmt.Errorf("federation: shard %d at %s: %w", i, addr, err)
			}
			handles[i] = rs
		}
	} else {
		f.shards = make([]*livecluster.Cluster, f.tp.Shards)
		for i := range handles {
			i := i
			// The host loop calls OnReject serially, so one scratch pair per
			// shard serves every pass.
			var rejects []wire.RejectEntry
			var taken []bool
			cl, err := livecluster.New(livecluster.Config{
				Workload:  ShardWorkload(f.cfg.Workload, f.tp, i),
				Algorithm: f.cfg.Algorithm,
				Scale:     f.cfg.Scale,
				Clock:     clock,
				External:  true,
				OnReject: func(b []livecluster.Bounce, now simtime.Instant) {
					rejects = rejects[:0]
					for _, x := range b {
						rejects = append(rejects, wire.RejectEntry{ID: int32(x.Task.ID), Reason: x.Reason})
					}
					taken = f.onRejectBatch(i, rejects, now, taken[:0])
					for k := range b {
						b[k].Taken = taken[k]
					}
				},
				Obs:          f.obsShards[i],
				Faults:       f.faults[i],
				Liveness:     f.cfg.Liveness,
				Admission:    f.cfg.Admission,
				Backpressure: f.cfg.Backpressure,
				SlackGuard:   f.cfg.SlackGuard,
				Degrade:      f.cfg.Degrade,
				Parallel:     f.cfg.Parallel,
				StealDepth:   f.cfg.StealDepth,
				FrontierCap:  f.cfg.FrontierCap,
				DupCap:       f.cfg.DupCap,
			})
			if err != nil {
				return nil, fmt.Errorf("federation: shard %d: %w", i, err)
			}
			f.shards[i] = cl
		}
		for i, cl := range f.shards {
			ls := &localShard{cl: cl, o: f.obsShards[i], done: make(chan struct{})}
			ls.start(i, failed)
			handles[i] = ls
		}
	}
	f.mu.Lock()
	f.handles = handles
	f.mu.Unlock()

	// Pump the global arrival sequence through the router in real
	// (scaled) time, routing every batch of due arrivals against one view
	// snapshot.
	pumpErr := f.pump(failed)

	// Wait until every distinct task has reached a non-bounce terminal
	// bucket somewhere — hit, purged, scheduled-missed, lost or shed. A
	// task mid-migration is in no terminal bucket, so sealing here cannot
	// race a bounce. (A dead remote shard counts everything routed to it
	// as settled: lost with the shard.)
	if pumpErr == nil {
		deadline := time.Now().Add(f.cfg.SettleTimeout)
		total := int64(len(f.cfg.Workload.Tasks))
	settle:
		for f.settled() < total {
			select {
			case i := <-failed:
				pumpErr = fmt.Errorf("federation: shard %d failed mid-run", i)
				break settle
			default:
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	for _, h := range f.handles {
		h.Seal()
	}
	results := make([]*metrics.RunResult, f.tp.Shards)
	var errs []error
	for i, h := range f.handles {
		res, err := h.Wait()
		results[i] = res
		if err != nil {
			errs = append(errs, fmt.Errorf("federation: shard %d: %w", i, err))
		}
	}
	if pumpErr != nil {
		return nil, pumpErr
	}
	if len(errs) > 0 {
		return nil, errs[0]
	}

	f.mu.Lock()
	res := &Result{
		Topology:       f.tp,
		Placement:      f.cfg.Placement,
		Shards:         results,
		Routed:         f.routedN,
		Migrated:       f.migratedN,
		Bounced:        f.bouncedN,
		Rejected:       f.rejectedN,
		Salvaged:       f.salvagedN,
		SalvageLost:    f.salvageLostN,
		Rejoins:        f.rejoinsN,
		PerShardRouted: append([]int(nil), f.perShard...),
	}
	f.mu.Unlock()
	return res, nil
}

// pump replays the workload's arrival sequence: it sleeps until the next
// arrival, gathers every task due at the router's clock (bounded by
// BatchCap per routing decision), and routes the batch against a single
// view snapshot — one locked placement pass and one SubmitBatch per
// destination shard, instead of a lock/snapshot/submit cycle per task.
func (f *Federation) pump(failed <-chan int) error {
	tasks := f.cfg.Workload.Tasks
	for i := 0; i < len(tasks); {
		select {
		case s := <-failed:
			return fmt.Errorf("federation: shard %d failed mid-run", s)
		default:
		}
		f.clock.SleepUntil(tasks[i].Arrival)
		now := f.clock.Now()
		j := i + 1
		for j < len(tasks) && !tasks[j].Arrival.After(now) {
			j++
		}
		for i < j {
			n := j - i
			if f.cfg.BatchCap > 0 && n > f.cfg.BatchCap {
				n = f.cfg.BatchCap
			}
			f.routeBatch(tasks[i:i+n], now)
			i += n
		}
	}
	return nil
}

// settled sums each shard's settled-task count — the number of distinct
// tasks whose fate is decided.
func (f *Federation) settled() int64 {
	var sum int64
	for _, h := range f.handles {
		sum += h.SettledTasks()
	}
	return sum
}

// routeBatch places a batch of due arrivals: one view snapshot, one
// placement pass (Submitted updated incrementally so the tie-break sees
// earlier placements in the same batch), one grouped SubmitBatch per
// destination shard. When every shard is dead a task still goes to shard
// 0, whose host loop will bounce it (declined — nowhere to go) and count
// it lost, keeping the books honest.
func (f *Federation) routeBatch(ts []*task.Task, now simtime.Instant) {
	f.mu.Lock()
	views := f.snapshotViewsLocked(now)
	for _, t := range ts {
		f.fillTaskViews(views, t)
		s := f.cfg.Placement.Pick(t, views, nil)
		if s < 0 {
			s = 0
		}
		f.routedN++
		f.perShard[s]++
		f.submitted[s]++
		views[s].Submitted++
		f.routed.Inc()
		f.routedBy[s].Inc()
		f.note(obs.Entry{Type: "route", Task: int(t.ID), Worker: s,
			Detail: f.routeDetail}, now)
		f.stage[s] = append(f.stage[s], Localize(t, f.tp, s))
	}
	f.mu.Unlock()
	// Submit outside mu: a remote shard's write can block on the network,
	// and reject callbacks re-enter the router lock. Submit cannot fail on
	// a live shard here (shards seal only after the pump and settle
	// complete); a batch a dead remote shard could not take is charged to
	// that shard and then salvaged like its outstanding tasks, so every
	// task still reconciles — rescued on a sibling or explicitly lost.
	for s := range f.stage {
		if len(f.stage[s]) > 0 {
			if err := f.handles[s].SubmitBatch(f.stage[s]); err != nil {
				if rs, ok := f.handles[s].(*remoteShard); ok {
					rs.chargeLost(len(f.stage[s]))
					f.salvageBatch(rs, f.stage[s], now)
				}
			}
			f.stage[s] = f.stage[s][:0]
		}
	}
}

// acceptedBounces returns how many of shard i's rejects the router
// re-placed on a sibling — exact where a dead shard's last counter
// snapshot may trail the truth.
func (f *Federation) acceptedBounces(i int) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(f.bounces[i])
}

// onRejectBatch is each shard's bounce callback: it re-offers one host-loop
// pass's rejects, in order, to the best feasible sibling of shard from,
// and appends to taken whether each was accepted (ownership moves to the
// sibling) or declined (the rejecting shard sheds or loses it locally).
// Tasks shed for shutdown never get here. Entries are keyed by task ID —
// the router re-places its own global copy — so remote shards bounce with
// a 4-byte identifier.
//
// The §4.3 gate runs for every entry under one hold of f.mu, staging the
// accepted migrations per sibling; after unlocking, each sibling gets one
// Submit. A sibling submit that fails (a remote shard that died) is
// charged to that sibling and salvaged, as routeBatch does; the entry
// stays taken, since the router already owns the task.
func (f *Federation) onRejectBatch(from int, rejects []wire.RejectEntry, now simtime.Instant, taken []bool) []bool {
	var stage [][]*task.Task
	f.mu.Lock()
	for _, r := range rejects {
		f.bouncedN++
		f.bounced.Inc()
		s, g, v := f.migrationTargetLocked(from, task.ID(r.ID), string(r.Reason), now)
		taken = append(taken, s >= 0)
		if s < 0 {
			continue
		}
		f.commitMigrationLocked(from, s, g, v, string(r.Reason), now)
		if stage == nil {
			stage = make([][]*task.Task, f.tp.Shards)
		}
		stage[s] = append(stage[s], Localize(g, f.tp, s))
	}
	f.mu.Unlock()
	for s, ts := range stage {
		if len(ts) == 0 {
			continue
		}
		if err := f.handles[s].SubmitBatch(ts); err != nil {
			if rs, ok := f.handles[s].(*remoteShard); ok {
				rs.chargeLost(len(ts))
				f.salvageBatch(rs, ts, now)
			}
		}
	}
	return taken
}

// migrateLocked re-offers one task to the best feasible sibling of shard
// from and submits it there at once — the salvage path's migration, run
// under the lock. Caller holds f.mu and has already counted the bounce.
// Returns true when a sibling accepted the task; a failed submit declines.
func (f *Federation) migrateLocked(from int, id task.ID, reason string, now simtime.Instant) bool {
	s, g, v := f.migrationTargetLocked(from, id, reason, now)
	if s < 0 {
		return false
	}
	if err := f.handles[s].SubmitBatch([]*task.Task{Localize(g, f.tp, s)}); err != nil {
		f.declineLocked(id, reason, now)
		return false
	}
	f.commitMigrationLocked(from, s, g, v, reason, now)
	return true
}

// migrationTargetLocked runs the §4.3 migration gate for one rejected
// task: it returns the best sibling of shard from whose view can still
// meet the deadline, with the router's global copy of the task and the
// sibling's view, or -1 (the decline already recorded) when none can.
// Caller holds f.mu.
func (f *Federation) migrationTargetLocked(from int, id task.ID, reason string, now simtime.Instant) (int, *task.Task, ShardView) {
	if !f.cfg.Migrate {
		f.declineLocked(id, reason, now)
		return -1, nil, ShardView{}
	}
	g := f.orig[id]
	if g == nil {
		// A task the router never placed (not ours to migrate).
		f.declineLocked(id, reason, now)
		return -1, nil, ShardView{}
	}
	tried := f.tried[id]
	if tried == nil {
		tried = make(map[int]bool, f.tp.Shards)
		f.tried[id] = tried
	}
	tried[from] = true
	views := f.viewsLocked(g, now)
	s := f.cfg.Placement.Pick(g, views, func(i int) bool {
		return i != from && !tried[i] && views[i].Feasible(g, now)
	})
	if s < 0 {
		f.declineLocked(id, reason, now)
		return -1, nil, ShardView{}
	}
	return s, g, views[s]
}

// declineLocked records a rejected task the router could not re-place.
func (f *Federation) declineLocked(id task.ID, reason string, now simtime.Instant) {
	f.rejectedN++
	f.rejected.Inc()
	f.note(obs.Entry{Type: "route-reject", Task: int(id), Worker: -1, Detail: reason}, now)
}

// commitMigrationLocked books task g's migration from shard from to
// sibling s, whose view v passed the gate. Caller holds f.mu.
func (f *Federation) commitMigrationLocked(from, s int, g *task.Task, v ShardView, reason string, now simtime.Instant) {
	f.tried[g.ID][s] = true
	f.submitted[s]++
	f.bounces[from]++
	f.migratedN++
	f.migrated.Inc()
	if rs, ok := f.handles[from].(*remoteShard); ok {
		// The sibling owns the task now; the dead-shard salvage ledger
		// must not offer it again.
		rs.forget(g.ID)
	}
	// The migrate span re-states the §4.3 verdict the sibling passed:
	// RQs + se_lk against the slack left at this instant.
	f.note(obs.Entry{Type: "migrate", Task: int(g.ID), Worker: s,
		Detail: fmt.Sprintf("from shard %d, reason %s: RQs=%s comm=%s slack=%s",
			from, reason, v.RQs, v.Comm, g.Deadline.Sub(now))}, now)
}

// salvageLocked re-routes one task off dead shard s through the same §4.3
// migration gate a live bounce takes: it is charged as a bounce from s,
// and either a feasible sibling accepts it (a salvage — counted as a
// migration, so Reconcile's bounce identities hold unchanged) or no
// sibling can make its deadline and it is explicitly rejected (salvage
// lost — the shard's books then charge it lost). Caller holds f.mu.
func (f *Federation) salvageLocked(s *remoteShard, id task.ID, reason string, now simtime.Instant) bool {
	f.bouncedN++
	f.bounced.Inc()
	if f.migrateLocked(s.id, id, reason, now) {
		f.salvagedN++
		f.salvaged.Inc()
		f.salvagedIDs[id] = true
		return true
	}
	f.salvageLostN++
	f.salvageLost.Inc()
	return false
}

// recoverShard is the session-loss entry point: it walks the dead
// session's outstanding ledger (submitted minus verdicted, per the last
// applied checkpoint) in task order, salvages every task a sibling can
// still finish by its deadline, then folds the session's books so the
// shard can rejoin with a clean per-session ledger. Runs on the recovery
// goroutine; takes f.mu.
func (f *Federation) recoverShard(s *remoteShard) {
	now := f.clock.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.handles != nil {
		ids := s.outstandingIDs()
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			// A concurrent failed-submit salvage (salvageBatch) or an
			// in-flight verdict may have settled the ID between the
			// snapshot and here; skip anything no longer ours to place.
			if !s.stillOutstanding(id) || f.salvagedIDs[id] {
				continue
			}
			f.salvageLocked(s, id, "shard-death", now)
		}
	}
	s.fold(int64(f.bounces[s.id]))
}

// salvageBatch handles a first placement that failed because the shard
// died mid-submit: the batch never reached the shard, so each task is
// salvaged like an outstanding task and the stray charge is folded
// straight into the shard's carried books (these tasks post-date the
// death-time fold).
func (f *Federation) salvageBatch(rs *remoteShard, ts []*task.Task, now simtime.Instant) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range ts {
		if f.salvagedIDs[t.ID] {
			continue
		}
		ok := f.salvageLocked(rs, t.ID, "submit-failed", now)
		rs.foldStray(ok)
	}
}

// noteRejoin records a completed rejoin handshake.
func (f *Federation) noteRejoin(shard int) {
	f.rejoinsC.Inc()
	f.mu.Lock()
	f.rejoinsN++
	f.mu.Unlock()
	f.note(obs.Entry{Type: "rejoin", Task: -1, Worker: shard}, f.clock.Now())
}

// noteQuarantine counts a placeable→quarantined edge. Called with f.mu
// held (from the placement snapshot), so it must only touch the counter.
func (f *Federation) noteQuarantine() {
	f.quarantines.Inc()
}

// note stamps and records one router-journal entry.
func (f *Federation) note(e obs.Entry, at simtime.Instant) {
	e.Wall = time.Now()
	e.Virtual = at
	f.journal.Record(e)
}

// MergedEntries merges the router journal and every shard journal into one
// record-ordered stream on the shared clock, each entry tagged with its
// source (obs.RouterShard for the router). The second return is the summed
// eviction count, so callers can tell a complete lifecycle view from a
// truncated one.
func (f *Federation) MergedEntries() ([]obs.Entry, int64) {
	f.mu.Lock()
	handles := f.handles
	f.mu.Unlock()
	sources := make(map[int][]obs.Entry, f.tp.Shards+1)
	entries, evicted := f.journal.Export()
	sources[obs.RouterShard] = entries
	for i := 0; i < f.tp.Shards; i++ {
		var se []obs.Entry
		var sev int64
		if handles != nil && handles[i] != nil {
			se, sev = handles[i].Journal()
		} else {
			se, sev = f.obsShards[i].Journal().Export()
		}
		sources[i] = se
		evicted += sev
	}
	return obs.MergeEntries(sources), evicted
}

// ShardCounters returns shard i's latest registry snapshot — the local
// observer's registry in process, or the last wire Summary from a remote
// shard. Nil before Run has built the shard handles.
func (f *Federation) ShardCounters(i int) map[string]int64 {
	f.mu.Lock()
	handles := f.handles
	f.mu.Unlock()
	if handles == nil || handles[i] == nil {
		return f.obsShards[i].Registry().Snapshot()
	}
	return handles[i].Counters()
}

// snapshotViewsLocked fills the reusable view buffer with every shard's
// task-independent fields: load summary projection plus the running
// Submitted tie-break count. Caller holds f.mu; the returned slice is
// valid until the next call.
func (f *Federation) snapshotViewsLocked(now simtime.Instant) []ShardView {
	if cap(f.viewBuf) < f.tp.Shards {
		f.viewBuf = make([]ShardView, f.tp.Shards)
	}
	views := f.viewBuf[:f.tp.Shards]
	for i := range views {
		sum := f.handles[i].LoadSummary()
		rqs := time.Duration(1) << 56 // no alive worker: beyond any deadline
		if sum.MinFree != simtime.Never {
			rqs = simtime.NonNeg(sum.MinFree.Sub(now))
		}
		views[i] = ShardView{
			Alive:       sum.Alive,
			Sealed:      sum.Sealed,
			Quarantined: !f.handles[i].Placeable(),
			RQs:         rqs,
			QueuedWork:  sum.QueuedWork,
			Submitted:   f.submitted[i],
		}
	}
	return views
}

// fillTaskViews projects one task onto an existing snapshot.
func (f *Federation) fillTaskViews(views []ShardView, t *task.Task) {
	for i := range views {
		ov := f.tp.Overlap(t, i)
		views[i].Overlap = ov
		if ov == 0 {
			views[i].Comm = f.cfg.Workload.Cost.Remote
		} else {
			views[i].Comm = 0
		}
	}
}

// viewsLocked projects every shard's load summary onto one task. Caller
// holds f.mu.
func (f *Federation) viewsLocked(t *task.Task, now simtime.Instant) []ShardView {
	views := f.snapshotViewsLocked(now)
	f.fillTaskViews(views, t)
	return views
}
