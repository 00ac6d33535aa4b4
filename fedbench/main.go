// Command fedbench is the repository's benchmark: it drives the RT-SADS
// federation end to end — router, RTFW wire, shard sessions, host loops
// and workers over loopback TCP — and its deterministic simulator twin on
// the same arrivals, and reports deadline hits, guarantee latency, CPU per
// task, set-up time and heap, plus per-layer figures from a traced run.
// See README.md for the workloads, the metrics and how to run it.
//
//	fedbench --workload tcp-steady --seed 1 --seconds 40 --trace 0
//	fedbench --workload all --seconds 40
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// reconcileFailures is the share of repetitions whose router books fail.
const reconcileFailures = "federation.reconcile_failures"

// heldOutSeed is never used while tuning the benchmark or a change; a claim
// of a gain must also hold on it.
const heldOutSeed = 7919

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// forks is how many processes one run is split across. Separate
// processes land on different heap layouts and CPU placements, which on a
// shared virtual machine move CPU-bound figures by 10–20% from one process
// to the next; the run reports the median over its processes, as JMH
// reports over forks.
const forks = 4

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fedbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "tcp-steady, tcp-overload, sim-overload, or all (untraced and traced runs of each)")
	seed := fs.Uint64("seed", 1, "workload seed; each process and repetition derives its own from it")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 runs the probes and reports the per-layer metrics")
	tasks := fs.Int("tasks", 0, "tasks per repetition (0 = the workload's own size; smaller values are for smoke tests)")
	child := fs.Bool("child", false, "measure in this process and report every figure in the form the parent process reads (internal)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "fedbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 || *tasks < 0 {
		fmt.Fprintln(stderr, "fedbench: --seconds must be positive and --tasks non-negative")
		return 2
	}
	o := options{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), tasks: *tasks}
	if *name == "all" {
		return suite(stdout, stderr, o)
	}
	s, err := lookupSpec(*name)
	if err != nil {
		fmt.Fprintf(stderr, "fedbench: %v\n", err)
		return 2
	}
	if *tasks > 0 {
		s.tasks = *tasks
	}
	traced := *trace == 1
	if *child {
		out := measure(s, o.seed, o.dur, traced, stdout).outcome()
		if err := writeJSONLine(stdout, out.wire()); err != nil {
			fmt.Fprintf(stderr, "fedbench: %v\n", err)
			return 1
		}
		return 0
	}
	printEnv(stdout, s.name, o)
	out := o.measure(s, traced, stdout)
	figs := out.e2e
	if traced {
		figs = out.layers
	}
	printTable(stdout, s.name, figs)
	if err := printResult(stdout, out.correct, out.attempted, out.failed, figs); err != nil {
		fmt.Fprintf(stderr, "fedbench: %v\n", err)
		return 1
	}
	if out.err != nil {
		fmt.Fprintf(stderr, "fedbench: %v\n", out.err)
		return 1
	}
	return 0
}

// options are the run settings shared by every workload.
type options struct {
	seed  uint64
	dur   time.Duration
	tasks int
}

// outcome is what one run of a workload reports.
type outcome struct {
	correct            bool
	attempted, failed  int
	reps, bookFailures int
	e2e, layers        []metric
	err                error
}

// measure runs workload s for the run's time, split across forks child
// processes: child k measures its share under seed×100+k, and every figure
// is the median over the children.
func (o options) measure(s spec, traced bool, stdout io.Writer) outcome {
	exe, err := os.Executable()
	if err != nil {
		return outcome{err: fmt.Errorf("locate the benchmark binary: %w", err)}
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	var children []childOutcome
	for k := 0; k < forks; k++ {
		args := []string{"--child", "--workload", s.name, "--trace", trace,
			"--seed", strconv.FormatUint(o.seed*100+uint64(k), 10),
			"--seconds", strconv.FormatFloat((o.dur / forks).Seconds(), 'f', -1, 64),
			"--tasks", strconv.Itoa(o.tasks)}
		c, err := runChild(exe, args, stdout)
		if err != nil {
			return outcome{attempted: s.tasks, failed: s.tasks, err: fmt.Errorf("%s process %d: %w", s.name, k, err)}
		}
		children = append(children, c)
	}
	return mergeChildren(children)
}

// childOutcome is the last line a child process prints.
type childOutcome struct {
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	E2E       []wireMetric `json:"e2e"`
	Layers    []wireMetric `json:"layers"`
	Err       string       `json:"err,omitempty"`
	// Reps and BookFailures let the parent pool the share of repetitions
	// whose router books failed.
	Reps         int `json:"reps"`
	BookFailures int `json:"book_failures"`
}

type wireMetric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (out outcome) wire() childOutcome {
	c := childOutcome{Correct: out.correct, Attempted: out.attempted, Failed: out.failed,
		Reps: out.reps, BookFailures: out.bookFailures}
	for _, m := range out.e2e {
		c.E2E = append(c.E2E, wireMetric(m))
	}
	for _, m := range out.layers {
		c.Layers = append(c.Layers, wireMetric(m))
	}
	if out.err != nil {
		c.Err = out.err.Error()
	}
	return c
}

// runChild runs one child process to completion, relaying every line it
// prints except the last, which it parses.
func runChild(exe string, args []string, stdout io.Writer) (childOutcome, error) {
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childOutcome{}, err
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var c childOutcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		return childOutcome{}, fmt.Errorf("read result: %w", err)
	}
	if c.Err != "" {
		return c, errors.New(c.Err)
	}
	return c, nil
}

// mergeChildren sums the children's counts and takes each figure's median.
func mergeChildren(children []childOutcome) outcome {
	out := outcome{correct: true}
	for _, c := range children {
		out.correct = out.correct && c.Correct
		out.attempted += c.Attempted
		out.failed += c.Failed
		out.reps += c.Reps
		out.bookFailures += c.BookFailures
	}
	medianOf := func(pick func(c childOutcome) []wireMetric) []metric {
		var figs []metric
		for i, m := range pick(children[0]) {
			xs := make([]float64, len(children))
			for k, c := range children {
				xs[k] = pick(c)[i].Value
			}
			figs = append(figs, metric{m.Name, median(xs), m.Unit})
		}
		return figs
	}
	out.e2e = medianOf(func(c childOutcome) []wireMetric { return c.E2E })
	out.layers = medianOf(func(c childOutcome) []wireMetric { return c.Layers })
	// A median over processes would hide one process's failing books; the
	// share counts every repetition of the run.
	for i := range out.layers {
		if out.layers[i].Name == reconcileFailures {
			out.layers[i].Value = ratio(float64(out.bookFailures), float64(out.reps))
		}
	}
	return out
}

// measurement is one run: the repetitions of one workload that fit in the
// run's time.
type measurement struct {
	spec   spec
	traced bool
	reps   []*rep
	// exact counts the repetitions of the simulator's first seed cycle,
	// which its hit_ratio and guarantee latencies pool.
	exact int
	err   error
}

// warmShare is the part of a run spent warming the process up before
// measuring: the first repetitions in a fresh process fault in the heap
// and size the garbage collector's pacing, and run slower than the long-
// lived federation they stand for.
const warmShare = 0.15

// warmSeedBase offsets the warm-up repetitions' seeds from the measured
// ones.
const warmSeedBase = 500

// measure warms the process up, then runs repetitions of s until the next
// one would overrun the rest of dur, always completing at least one (and
// one full seed cycle on the simulator).
func measure(s spec, seed uint64, dur time.Duration, traced bool, out io.Writer) *measurement {
	m := &measurement{spec: s, traced: traced}
	start := time.Now()
	for i := 0; time.Since(start) < time.Duration(float64(dur)*warmShare); i++ {
		if _, _, err := runRep(s, seed, warmSeedBase+i, traced); err != nil {
			m.err = fmt.Errorf("%s warm-up repetition %d: %w", s.name, i, err)
			return m
		}
	}
	dur -= time.Since(start)
	var first []simCounts
	steal0 := readSteal()
	start = time.Now()
	for i := 0; ; i++ {
		r, c, err := runRep(s, seed, i, traced)
		if err != nil {
			m.err = fmt.Errorf("%s repetition %d: %w", s.name, i, err)
			return m
		}
		m.reps = append(m.reps, r)
		if !s.live {
			if i < simCycle {
				if err := r.observeSim(s, c); err != nil {
					m.err = fmt.Errorf("%s repetition %d: %w", s.name, i, err)
					return m
				}
				first = append(first, c)
				m.exact = len(m.reps)
			} else {
				r.check(c == first[i%simCycle], "seed %d simulated differently on a repeat: %+v then %+v", r.seed, first[i%simCycle], c)
			}
		}
		// Simulator repetitions take milliseconds; past the first cycle
		// only the process summary reports them.
		if s.live || i < simCycle {
			printRep(out, r)
		}
		elapsed := time.Since(start)
		perRep := elapsed / time.Duration(len(m.reps))
		if elapsed+perRep > dur && (s.live || len(m.reps) >= simCycle) {
			m.printSummary(out, seed, readSteal().since(steal0))
			return m
		}
	}
}

// runRep runs repetition i of s. The simulator cycles through simCycle
// seeds, so its repeats can be checked for determinism.
func runRep(s spec, seed uint64, i int, traced bool) (*rep, simCounts, error) {
	if s.live {
		r, err := runLive(s, repSeed(seed, i), traced)
		return r, simCounts{}, err
	}
	return runSim(s, repSeed(seed, i%simCycle), traced)
}

// printSummary records the process's measured part: tasks offered and
// failed, checks run and failed, router-book failures, and the share of
// CPU time the hypervisor stole from the machine meanwhile, which is what
// most often explains a slow process on a shared virtual machine.
func (m *measurement) printSummary(w io.Writer, seed uint64, steal float64) {
	var checks, problems int
	for _, r := range m.reps {
		checks += r.checks
		problems += len(r.problems)
	}
	fmt.Fprintf(w, "process workload=%s seed=%d reps=%d offered=%d failed=%d checks=%d problems=%d router_book_failures=%d steal=%.1f%%\n",
		m.spec.name, seed, len(m.reps), m.attempted(), m.failedTasks(), checks, problems, m.bookFailures(), 100*steal)
}

// outcome summarises the run: its counts, correctness, and figures (the
// per-layer ones only when traced).
func (m *measurement) outcome() outcome {
	out := outcome{correct: m.correct(), attempted: m.attempted(), failed: m.failedTasks(),
		reps: len(m.reps), bookFailures: m.bookFailures(), err: m.err}
	if len(m.reps) > 0 {
		out.e2e = m.endToEnd()
		if m.traced {
			out.layers = m.layerMetrics()
		}
	}
	return out
}

// bookFailures counts repetitions whose router books failed.
func (m *measurement) bookFailures() int {
	n := 0
	for _, r := range m.reps {
		if r.bookErr != nil {
			n++
		}
	}
	return n
}

func (m *measurement) attempted() int {
	n := 0
	for _, r := range m.reps {
		n += r.offered
	}
	if m.err != nil {
		n += m.spec.tasks
	}
	return n
}

// failedTasks counts tasks lost outright, plus every task of a repetition
// that errored.
func (m *measurement) failedTasks() int {
	n := 0
	for _, r := range m.reps {
		n += r.failed
	}
	if m.err != nil {
		n += m.spec.tasks
	}
	return n
}

// correct holds when every repetition ran and passed every ground-truth
// check. Router book disagreements are counted separately (see
// federation.reconcile_failures) and do not make a run incorrect.
func (m *measurement) correct() bool {
	if m.err != nil || len(m.reps) == 0 {
		return false
	}
	for _, r := range m.reps {
		if len(r.problems) > 0 {
			return false
		}
	}
	return true
}

// perKTask scales a run total to one thousand tasks offered.
func (m *measurement) perKTask(total float64) float64 {
	n := 0
	for _, r := range m.reps {
		n += r.offered
	}
	if n == 0 {
		return 0
	}
	return total * 1000 / float64(n)
}

// perRep returns the median over the run's repetitions of one
// repetition's figure, so a repetition disturbed by a neighbour on the
// machine does not move the run.
func (m *measurement) perRep(f func(r *rep) float64) float64 {
	xs := make([]float64, len(m.reps))
	for i, r := range m.reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// hitRatio is the median repetition's share of tasks offered that met
// their deadline. The simulator's is exact instead: it pools the first
// seed cycle.
func (m *measurement) hitRatio() float64 {
	if m.spec.live {
		return m.perRep(func(r *rep) float64 { return ratio(float64(r.hits), float64(r.offered)) })
	}
	var hits, offered int
	for _, r := range m.reps[:m.exact] {
		hits += r.hits
		offered += r.offered
	}
	return ratio(float64(hits), float64(offered))
}

// guarantee returns the q-quantile of the guarantee latency: the median
// repetition's on the live tier, the first seed cycle's pooled samples on
// the simulator.
func (m *measurement) guarantee(q float64) float64 {
	if m.spec.live {
		return m.perRep(func(r *rep) float64 { return quantile(r.guaranteeMS, q) })
	}
	var pooled []float64
	for _, r := range m.reps[:m.exact] {
		pooled = append(pooled, r.guaranteeMS...)
	}
	return quantile(pooled, q)
}

// speed returns goodput and CPU per task offered: the median
// repetition's on the live tier. On the simulator it is one seed cycle's
// hits and tasks over the least wall and CPU time any repetition of each
// seed took. A seed's repetitions do identical work, so a slower one
// measures only what the host took from it; on a shared virtual machine
// the hypervisor steals 5–15% of the CPU for minutes at a time, which
// moved the median simulator speed by 25% from run to run.
func (m *measurement) speed() (hitsPerS, cpuUSPerTask float64) {
	if m.spec.live {
		return m.perRep(func(r *rep) float64 { return ratio(float64(r.hits), r.run.Seconds()) }),
			m.perRep(func(r *rep) float64 { return ratio(us(r.cpu), float64(r.offered)) })
	}
	var hits, offered int
	var run, cpu time.Duration
	for j := 0; j < simCycle && j < len(m.reps); j++ {
		fastRun, fastCPU := m.reps[j].run, m.reps[j].cpu
		for i := j; i < len(m.reps); i += simCycle {
			fastRun = min(fastRun, m.reps[i].run)
			fastCPU = min(fastCPU, m.reps[i].cpu)
		}
		hits += m.reps[j].hits
		offered += m.reps[j].offered
		run += fastRun
		cpu += fastCPU
	}
	return ratio(float64(hits), run.Seconds()), ratio(us(cpu), float64(offered))
}

// endToEnd computes the metrics a user of the federation sees.
func (m *measurement) endToEnd() []metric {
	hitsPerS, cpuPerTask := m.speed()
	return []metric{
		{"hit_ratio", m.hitRatio(), "ratio"},
		{"hits_per_s", hitsPerS, "1/s"},
		{"guarantee_ms_p50", m.guarantee(0.50), "ms"},
		{"cpu_us_per_task", cpuPerTask, "us"},
		{"setup_s", m.perRep(func(r *rep) float64 { return r.setup.Seconds() }), "s"},
		{"heap_peak_mb", m.perRep(func(r *rep) float64 { return r.heapMB }), "MB"},
	}
}

// layerMetrics computes the traced run's per-layer figures. Figures a
// workload has no layer for (the wire and the live host loop on the
// simulator) read 0.
func (m *measurement) layerMetrics() []metric {
	var (
		phases, batch, assigned, generated, expanded, backtracks int
		deadEnds, expired                                        int
		busy, quantum, used                                      time.Duration
		planUS                                                   []float64
		bytesIn, bytesOut, reads, writes, writeBusy              int64
		routed, bounced, migrated                                int
		routeLag, queueWait, planning, workerWait, execMS        []float64
		purged, schedMissed, shedQF, shedHopeless                int
		journal, evicted                                         int64
		gens                                                     []float64
		gcs                                                      uint64
		allocMB                                                  float64
	)
	for _, r := range m.reps {
		l := &r.layers
		if p := l.plan; p != nil {
			phases += p.phases
			batch += p.batch
			assigned += p.assigned
			generated += p.generated
			expanded += p.expanded
			backtracks += p.backtracks
			deadEnds += p.deadEnds
			expired += p.expired
			busy += p.busy
			quantum += p.quantum
			used += p.used
			planUS = append(planUS, p.planUS...)
		}
		if w := l.wire; w != nil {
			bytesIn += w.bytesIn.Load()
			bytesOut += w.bytesOut.Load()
			reads += w.reads.Load()
			writes += w.writes.Load()
			writeBusy += w.writeBusy.Load()
		}
		routed += l.routed
		bounced += l.bounced
		migrated += l.migrated
		routeLag = append(routeLag, l.routeLagMS...)
		queueWait = append(queueWait, l.queueWaitMS...)
		planning = append(planning, l.planningMS...)
		workerWait = append(workerWait, l.workerWaitMS...)
		execMS = append(execMS, l.execMS...)
		purged += l.purged
		schedMissed += l.schedMissed
		shedQF += l.shedQueueFull
		shedHopeless += l.shedHopeless
		journal += l.journalEntries
		evicted += l.journalEvicted
		gens = append(gens, ms(r.gen))
		gcs += r.gcs
		allocMB += r.allocMB
	}
	offered := 0
	for _, r := range m.reps {
		offered += r.offered
	}
	k := m.perKTask
	return []metric{
		{"e2e.guarantee_ms_p90", m.guarantee(0.90), "ms"},
		{"e2e.guarantee_ms_p99", m.guarantee(0.99), "ms"},
		{"core.phases", k(float64(phases)), "1/ktask"},
		{"core.plan_busy_ms", k(ms(busy)), "ms/ktask"},
		{"core.plan_us_p50", quantile(planUS, 0.50), "us"},
		{"core.plan_us_p99", quantile(planUS, 0.99), "us"},
		{"core.batch_mean", ratio(float64(batch), float64(phases)), "tasks"},
		{"core.scheduled_ratio", ratio(float64(assigned), float64(batch)), "ratio"},
		{"core.quantum_used_ratio", ratio(float64(used), float64(quantum)), "ratio"},
		{"search.generated", k(float64(generated)), "1/ktask"},
		{"search.expanded", k(float64(expanded)), "1/ktask"},
		{"search.backtracks", k(float64(backtracks)), "1/ktask"},
		{"search.dead_end_phases", k(float64(deadEnds)), "1/ktask"},
		{"search.expired_phases", k(float64(expired)), "1/ktask"},
		{"search.ns_per_vertex", ratio(float64(busy), float64(generated)), "ns"},
		{"wire.bytes_in_per_task", ratio(float64(bytesIn), float64(offered)), "B/task"},
		{"wire.bytes_out_per_task", ratio(float64(bytesOut), float64(offered)), "B/task"},
		{"wire.reads", k(float64(reads)), "1/ktask"},
		{"wire.writes", k(float64(writes)), "1/ktask"},
		{"wire.write_busy_ms", k(ms(time.Duration(writeBusy))), "ms/ktask"},
		{"federation.routed", k(float64(routed)), "1/ktask"},
		{"federation.bounced", k(float64(bounced)), "1/ktask"},
		{"federation.migrated", k(float64(migrated)), "1/ktask"},
		{"federation.migrate_ratio", ratio(float64(migrated), float64(bounced)), "ratio"},
		{"federation.route_lag_ms_p99", quantile(routeLag, 0.99), "ms"},
		{reconcileFailures, ratio(float64(m.bookFailures()), float64(len(m.reps))), "ratio"},
		{"livecluster.queue_wait_ms_p50", quantile(queueWait, 0.50), "ms"},
		{"livecluster.planning_ms_p50", quantile(planning, 0.50), "ms"},
		{"livecluster.worker_wait_ms_p50", quantile(workerWait, 0.50), "ms"},
		{"livecluster.exec_ms_p50", quantile(execMS, 0.50), "ms"},
		{"livecluster.purged", k(float64(purged)), "1/ktask"},
		{"livecluster.sched_missed", k(float64(schedMissed)), "1/ktask"},
		{"admission.shed_queue_full", k(float64(shedQF)), "1/ktask"},
		{"admission.shed_hopeless", k(float64(shedHopeless)), "1/ktask"},
		{"obs.journal_entries", k(float64(journal)), "1/ktask"},
		{"obs.journal_evicted", float64(evicted), "count"},
		{"workload.generate_ms", median(gens), "ms"},
		{"process.gc_cycles", k(float64(gcs)), "1/ktask"},
		{"process.alloc_mb_per_ktask", k(allocMB), "MB/ktask"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printEnv records what the figures depend on besides the code.
func printEnv(w io.Writer, workload string, o options) {
	env := map[string]any{
		"workload":      workload,
		"seed":          o.seed,
		"forks":         forks,
		"held_out_seed": heldOutSeed,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"scale":         scale,
		"topology":      fmt.Sprintf("%d shards x %d workers", shards, workersPerShard),
	}
	b, _ := json.Marshal(env) // a map of plain values always marshals
	fmt.Fprintf(w, "env %s\n", b)
}

// cpuModel reads the processor model from /proc/cpuinfo ("unknown" where
// the kernel does not provide it).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printRep records one repetition: its seed, tasks offered and failed,
// and the outcome of the correctness checks.
func printRep(w io.Writer, r *rep) {
	books := "ok"
	if r.bookErr != nil {
		books = r.bookErr.Error()
	}
	g := append([]float64(nil), r.guaranteeMS...)
	fmt.Fprintf(w, "rep seed=%d offered=%d hits=%d failed=%d setup=%.4fs run=%.3fs cpu=%.1fus/task heap=%.1fMB guarantee_p50=%.4fms p90=%.4fms p99=%.4fms router_books=%q checks=%d problems=%d\n",
		r.seed, r.offered, r.hits, r.failed, r.setup.Seconds(), r.run.Seconds(), us(r.cpu)/float64(r.offered), r.heapMB,
		quantile(g, 0.5), quantile(g, 0.9), quantile(g, 0.99), books, r.checks, len(r.problems))
	for _, p := range r.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

func printTable(w io.Writer, workload string, figs []metric) {
	for _, m := range figs {
		fmt.Fprintf(w, "%-14s %-32s %14.6g %s\n", workload, m.Name, m.Value, m.Unit)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the run's result as the last line of stdout.
func printResult(w io.Writer, correct bool, attempted, failed int, figs []metric) error {
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, attempted, failed, make(map[string]jsonMetric, len(figs))}
	for _, m := range figs {
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	return writeJSONLine(w, out)
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// suite runs every workload untraced and then traced, prints the
// end-to-end table, the tracing overhead (traced − untraced) per
// end-to-end metric, and the per-layer table, and ends with one JSON line
// holding all of them keyed workload/metric.
func suite(stdout, stderr io.Writer, o options) int {
	correct, attempted, failed := true, 0, 0
	var all []metric
	code := 0
	for _, s := range specs {
		if o.tasks > 0 {
			s.tasks = o.tasks
		}
		printEnv(stdout, s.name, o)
		plain := o.measure(s, false, stdout)
		traced := o.measure(s, true, stdout)
		for _, out := range []outcome{plain, traced} {
			correct = correct && out.correct
			attempted += out.attempted
			failed += out.failed
			if out.err != nil {
				fmt.Fprintf(stderr, "fedbench: %v\n", out.err)
				code = 1
			}
		}
		if len(plain.e2e) == 0 || len(traced.e2e) == 0 {
			continue
		}
		overhead := make([]metric, len(plain.e2e))
		for i, m := range plain.e2e {
			overhead[i] = metric{"overhead." + m.Name, traced.e2e[i].Value - m.Value, m.Unit}
		}
		for _, group := range [][]metric{plain.e2e, overhead, traced.layers} {
			printTable(stdout, s.name, group)
			for _, m := range group {
				all = append(all, metric{s.name + "/" + m.Name, m.Value, m.Unit})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	if err := printResult(stdout, correct, attempted, failed, all); err != nil {
		fmt.Fprintf(stderr, "fedbench: %v\n", err)
		return 1
	}
	return code
}
