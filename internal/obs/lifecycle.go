package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"
)

// This file assembles per-task lifecycle traces out of journal entries: the
// span chain admission → placement → migration → delivery → execution →
// terminal state, plus the slack accounting that decomposes the §4.3
// budget d_l − t_c into where the time actually went. It works on plain
// []Entry so it serves equally over one cluster's journal or a
// federation-merged journal (entries tagged with their source Shard).

// Terminal states a task's span chain can end in. Exactly one terminal
// entry per admitted task is the span-completeness invariant the chaos
// harness gates on.
const (
	TerminalCompleted = "completed" // exec, deadline met
	TerminalMissed    = "missed"    // exec, deadline missed (scheduled miss)
	TerminalExpired   = "expired"   // purged with the deadline already gone
	TerminalShed      = "shed"      // dropped by admission control
	TerminalLost      = "lost"      // died with a failed worker past its deadline
)

// terminalState maps a journal entry to the terminal it represents, or ""
// for non-terminal entries.
func terminalState(e *Entry) string {
	switch e.Type {
	case "exec":
		if e.Hit {
			return TerminalCompleted
		}
		return TerminalMissed
	case "purge":
		return TerminalExpired
	case "shed":
		return TerminalShed
	case "lost":
		return TerminalLost
	}
	return ""
}

// shardPhase keys planning-time lookup: phase numbers are monotonic within
// a shard, so the pair is unique across a merged journal.
type shardPhase struct{ shard, phase int }

// lifecycleTypes are the entry types that belong to a task's span chain.
var lifecycleTypes = map[string]bool{
	"arrival": true, "admit": true, "deliver": true, "exec": true,
	"purge": true, "shed": true, "lost": true, "reroute": true,
	"bounce": true, "route": true, "migrate": true, "route-reject": true,
}

// SlackAccounting decomposes one completed task's deadline budget
// (d_l − t_c, deadline minus arrival) into its lifecycle components:
//
//	Budget = QueueWait + Planning + WorkerWait + Comm + Exec + Remaining
//
// Planning is the scheduling time of the phase that delivered the task
// (§5's scheduling cost attributed per task); Comm is the c_lk
// communication component of se_lk; Remaining is the slack left at finish
// (negative on a scheduled miss). QueueWait absorbs any residue so the
// identity holds exactly even when a phase-end entry was evicted.
type SlackAccounting struct {
	Budget     time.Duration `json:"budget"`
	QueueWait  time.Duration `json:"queue_wait"`
	Planning   time.Duration `json:"planning"`
	WorkerWait time.Duration `json:"worker_wait"`
	Comm       time.Duration `json:"comm"`
	Exec       time.Duration `json:"exec"`
	Remaining  time.Duration `json:"remaining"`
}

// TaskTrace is one task's assembled lifecycle: its span chain in order,
// the terminal it reached (empty while still in flight), and — for
// executed tasks whose arrival entry survived — the slack decomposition.
type TaskTrace struct {
	Task     int              `json:"task"`
	Terminal string           `json:"terminal,omitempty"`
	Slack    *SlackAccounting `json:"slack,omitempty"`
	Spans    []Entry          `json:"spans"`
}

// AssembleTaskTraces groups lifecycle entries by task and assembles each
// task's trace. Entries must be in record order (a single journal's
// Snapshot, or MergeEntries output); non-lifecycle types (phase bookkeeping,
// liveness, run markers) are skipped except phase-end, which is indexed to
// attribute planning time.
func AssembleTaskTraces(entries []Entry) map[int]*TaskTrace {
	// Planning time by (shard, phase): the delivering phase's scheduling
	// cost, looked up when a task's deliver span is attributed.
	planning := make(map[shardPhase]time.Duration)
	for i := range entries {
		if entries[i].Type == "phase-end" {
			planning[shardPhase{entries[i].Shard, entries[i].Phase}] = entries[i].Dur
		}
	}
	out := make(map[int]*TaskTrace)
	for i := range entries {
		e := &entries[i]
		if !lifecycleTypes[e.Type] {
			continue
		}
		tt := out[e.Task]
		if tt == nil {
			tt = &TaskTrace{Task: e.Task}
			out[e.Task] = tt
		}
		tt.Spans = append(tt.Spans, *e)
		if t := terminalState(e); t != "" {
			tt.Terminal = t
		}
	}
	for _, tt := range out {
		tt.Slack = slackAccounting(tt, planning)
	}
	return out
}

// TaskTraceFor assembles the trace of a single task id, or nil when the
// entries hold no lifecycle span for it.
func TaskTraceFor(entries []Entry, id int) *TaskTrace {
	// Filter first so assembly cost is proportional to one task's spans,
	// not the journal; phase-end entries ride along for planning lookup.
	filtered := make([]Entry, 0, 16)
	for i := range entries {
		if entries[i].Task == id && lifecycleTypes[entries[i].Type] || entries[i].Type == "phase-end" {
			filtered = append(filtered, entries[i])
		}
	}
	return AssembleTaskTraces(filtered)[id]
}

// slackAccounting decomposes the deadline budget for an executed task. It
// needs the arrival (for t_c and d_l), the delivering assignment and the
// execution; tasks that never executed, or whose arrival was evicted from
// the ring, get no accounting.
func slackAccounting(tt *TaskTrace, planning map[shardPhase]time.Duration) *SlackAccounting {
	var arrival, exec *Entry
	for i := range tt.Spans {
		e := &tt.Spans[i]
		switch e.Type {
		case "arrival":
			if arrival == nil {
				arrival = e
			}
		case "exec":
			exec = e
		}
	}
	if arrival == nil || exec == nil || arrival.Deadline == 0 {
		return nil
	}
	// The delivering assignment is the last deliver to the executing worker
	// at or before execution start (reroutes and re-plans can deliver the
	// same task more than once; only the final one ran).
	var deliver *Entry
	for i := range tt.Spans {
		e := &tt.Spans[i]
		if e.Type == "deliver" && e.Worker == exec.Worker && e.Shard == exec.Shard && !e.Virtual.After(exec.Virtual) {
			deliver = e
		}
	}
	finish := exec.Virtual.Add(exec.Dur)
	s := &SlackAccounting{
		Budget:    arrival.Deadline.Sub(arrival.Virtual),
		Remaining: arrival.Deadline.Sub(finish),
	}
	if deliver != nil {
		s.Comm = deliver.Dur
		s.Exec = exec.Dur - s.Comm
		s.WorkerWait = exec.Virtual.Sub(deliver.Virtual)
		s.Planning = planning[shardPhase{deliver.Shard, deliver.Phase}]
	} else {
		s.Exec = exec.Dur
	}
	// QueueWait is the residual arrival→start time not attributed to
	// planning, keeping the identity exact even if the phase-end entry for
	// the delivering phase was evicted.
	s.QueueWait = s.Budget - s.Planning - s.WorkerWait - s.Comm - s.Exec - s.Remaining
	return s
}

// MergeEntries merges journals from several sources into one record-ordered
// stream, tagging every entry with its source shard (use RouterShard for a
// federation router's journal). Order is by virtual time, then wall time,
// then source, then sequence — the shared clock is authoritative, wall time
// breaks ties between shards at the same instant.
func MergeEntries(sources map[int][]Entry) []Entry {
	n := 0
	for _, s := range sources {
		n += len(s)
	}
	out := make([]Entry, 0, n)
	for shard, s := range sources {
		for _, e := range s {
			e.Shard = shard
			out = append(out, e)
		}
	}
	slices.SortStableFunc(out, func(a, b Entry) int {
		if c := cmp.Compare(a.Virtual, b.Virtual); c != 0 {
			return c
		}
		if c := a.Wall.Compare(b.Wall); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Shard, b.Shard); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return out
}

// SpanViolations checks the span-completeness invariant over a journal
// (single cluster or federation-merged): every task with an admit span
// reaches exactly one terminal span, and every task with any lifecycle
// span reaches at most one. Returns one message per violating task. Only
// meaningful when the journal kept everything (Evicted() == 0) and the run
// has finished; mid-run, in-flight tasks legitimately have no terminal yet.
func SpanViolations(entries []Entry) []string {
	admits := make(map[int]int)
	terminals := make(map[int]map[string]int)
	seen := make(map[int]bool)
	for i := range entries {
		e := &entries[i]
		if !lifecycleTypes[e.Type] {
			continue
		}
		seen[e.Task] = true
		if e.Type == "admit" {
			admits[e.Task]++
		}
		if t := terminalState(e); t != "" {
			if terminals[e.Task] == nil {
				terminals[e.Task] = make(map[string]int)
			}
			terminals[e.Task][t]++
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []string
	for _, id := range ids {
		n := 0
		for _, c := range terminals[id] {
			n += c
		}
		switch {
		case admits[id] > 0 && n != 1:
			out = append(out, fmt.Sprintf("task %d: admitted %d time(s) but reached %d terminal span(s) %v",
				id, admits[id], n, terminals[id]))
		case admits[id] == 0 && n > 1:
			out = append(out, fmt.Sprintf("task %d: %d terminal spans %v without admission",
				id, n, terminals[id]))
		}
	}
	return out
}
