package task

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/simtime"
)

func mk(id ID, proc time.Duration, deadline simtime.Instant) *Task {
	return &Task{ID: id, Proc: proc, Deadline: deadline, Affinity: affinity.NewSet(0)}
}

func TestSlack(t *testing.T) {
	tk := mk(1, 2*time.Millisecond, simtime.Instant(10*time.Millisecond))
	if got := tk.Slack(0); got != 8*time.Millisecond {
		t.Errorf("Slack(0) = %v, want 8ms", got)
	}
	if got := tk.Slack(simtime.Instant(9 * time.Millisecond)); got != -time.Millisecond {
		t.Errorf("Slack(9ms) = %v, want -1ms", got)
	}
}

func TestMissed(t *testing.T) {
	tk := mk(1, 2*time.Millisecond, simtime.Instant(10*time.Millisecond))
	tests := []struct {
		now  simtime.Instant
		want bool
	}{
		{0, false},
		{simtime.Instant(8 * time.Millisecond), false}, // finishes exactly at deadline
		{simtime.Instant(8*time.Millisecond + 1), true},
		{simtime.Instant(20 * time.Millisecond), true},
	}
	for _, tt := range tests {
		if got := tk.Missed(tt.now); got != tt.want {
			t.Errorf("Missed(%v) = %v, want %v", tt.now, got, tt.want)
		}
	}
}

func TestBatchPurgeMissed(t *testing.T) {
	early := mk(1, time.Millisecond, simtime.Instant(2*time.Millisecond))
	late := mk(2, time.Millisecond, simtime.Instant(100*time.Millisecond))
	b := NewBatch(early, late)
	purged := b.PurgeMissed(simtime.Instant(5 * time.Millisecond))
	if len(purged) != 1 || purged[0].ID != 1 {
		t.Fatalf("purged = %v", purged)
	}
	if b.Len() != 1 || b.Tasks()[0].ID != 2 {
		t.Fatalf("batch after purge = %v", b.Tasks())
	}
}

func TestBatchRemoveScheduled(t *testing.T) {
	ts := []*Task{
		mk(1, time.Millisecond, simtime.Instant(time.Second)),
		mk(2, time.Millisecond, simtime.Instant(time.Second)),
		mk(3, time.Millisecond, simtime.Instant(time.Second)),
	}
	b := NewBatch(ts...)
	n := b.RemoveScheduled([]*Task{ts[0], ts[2]})
	if n != 2 {
		t.Fatalf("removed %d, want 2", n)
	}
	if b.Len() != 1 || b.Tasks()[0].ID != 2 {
		t.Fatalf("batch = %v", b.Tasks())
	}
	if got := b.RemoveScheduled(nil); got != 0 {
		t.Errorf("RemoveScheduled(nil) = %d", got)
	}
}

func TestBatchAddAndLen(t *testing.T) {
	b := NewBatch()
	if b.Len() != 0 {
		t.Fatal("new batch not empty")
	}
	b.Add(mk(1, time.Millisecond, simtime.Never))
	b.Add(mk(2, time.Millisecond, simtime.Never), mk(3, time.Millisecond, simtime.Never))
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
}

func TestMinSlack(t *testing.T) {
	b := NewBatch()
	if _, ok := b.MinSlack(0); ok {
		t.Error("MinSlack on empty batch reported ok")
	}
	b.Add(
		mk(1, time.Millisecond, simtime.Instant(10*time.Millisecond)),  // slack 9ms
		mk(2, 4*time.Millisecond, simtime.Instant(6*time.Millisecond)), // slack 2ms
		mk(3, time.Millisecond, simtime.Instant(50*time.Millisecond)),  // slack 49ms
	)
	got, ok := b.MinSlack(0)
	if !ok || got != 2*time.Millisecond {
		t.Errorf("MinSlack = (%v,%v), want (2ms,true)", got, ok)
	}
	got, ok = b.MinSlack(simtime.Instant(5 * time.Millisecond))
	if !ok || got != -3*time.Millisecond {
		t.Errorf("MinSlack@5ms = (%v,%v), want (-3ms,true)", got, ok)
	}
}

func TestSortEDF(t *testing.T) {
	b := NewBatch(
		mk(3, 0, simtime.Instant(30)),
		mk(1, 0, simtime.Instant(10)),
		mk(4, 0, simtime.Instant(10)), // deadline tie with 1: ID breaks it
		mk(2, 0, simtime.Instant(20)),
	)
	b.SortEDF()
	var got []ID
	for _, tk := range b.Tasks() {
		got = append(got, tk.ID)
	}
	want := []ID{1, 4, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("EDF order = %v, want %v", got, want)
		}
	}
}

// Property: SortEDF yields non-decreasing deadlines and preserves the
// multiset of IDs.
func TestSortEDFProperty(t *testing.T) {
	f := func(deadlines []uint32) bool {
		tasks := make([]*Task, len(deadlines))
		idSum := 0
		for i, d := range deadlines {
			tasks[i] = mk(ID(i), 0, simtime.Instant(d))
			idSum += i
		}
		SortEDF(tasks)
		gotSum := 0
		for i := 1; i < len(tasks); i++ {
			if tasks[i-1].Deadline > tasks[i].Deadline {
				return false
			}
		}
		for _, tk := range tasks {
			gotSum += int(tk.ID)
		}
		return gotSum == idSum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaskString(t *testing.T) {
	tk := mk(7, time.Millisecond, simtime.Instant(5*time.Millisecond))
	if tk.String() == "" {
		t.Error("String is empty")
	}
}

func TestActualProc(t *testing.T) {
	tk := mk(1, 10*time.Millisecond, simtime.Never)
	if tk.ActualProc() != 10*time.Millisecond {
		t.Errorf("unset Actual should fall back to Proc")
	}
	tk.Actual = 4 * time.Millisecond
	if tk.ActualProc() != 4*time.Millisecond {
		t.Errorf("ActualProc = %v, want 4ms", tk.ActualProc())
	}
}

func TestSortLLF(t *testing.T) {
	// Laxity = deadline - proc; IDs break ties.
	a := mk(1, 5*time.Millisecond, simtime.Instant(10*time.Millisecond)) // laxity 5ms
	b := mk(2, 1*time.Millisecond, simtime.Instant(3*time.Millisecond))  // laxity 2ms
	c := mk(3, 8*time.Millisecond, simtime.Instant(10*time.Millisecond)) // laxity 2ms (tie with b)
	tasks := []*Task{a, b, c}
	SortLLF(tasks)
	want := []ID{2, 3, 1}
	for i, w := range want {
		if tasks[i].ID != w {
			t.Fatalf("LLF order = [%d %d %d], want %v", tasks[0].ID, tasks[1].ID, tasks[2].ID, want)
		}
	}
	batch := NewBatch(a, b, c)
	batch.SortLLF()
	if batch.Tasks()[0].ID != 2 {
		t.Error("Batch.SortLLF did not apply")
	}
}

// TestValidate covers each rule task.Validate enforces at every ingress,
// and that its error names the offending field.
func TestValidate(t *testing.T) {
	valid := Task{ID: 3, Arrival: 10, Proc: 100, Actual: 100, Deadline: 110}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	edges := valid
	edges.Actual, edges.Deadline, edges.Arrival = 0, 0, 0 // zero Actual, deadline == arrival, empty affinity
	if err := edges.Validate(); err != nil {
		t.Fatalf("valid edge task rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*Task)
		field  string
	}{
		{"zero proc", func(tt *Task) { tt.Proc = 0 }, "Proc"},
		{"negative proc", func(tt *Task) { tt.Proc = -5 }, "Proc"},
		{"negative actual", func(tt *Task) { tt.Actual = -1 }, "Actual"},
		{"actual beyond proc", func(tt *Task) { tt.Actual = tt.Proc + 1 }, "Actual"},
		{"negative arrival", func(tt *Task) { tt.Arrival = -1 }, "Arrival"},
		{"deadline before arrival", func(tt *Task) { tt.Deadline = tt.Arrival - 1 }, "Deadline"},
	} {
		tt := valid
		c.mutate(&tt)
		err := tt.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %v does not name %s", c.name, err, c.field)
		}
	}
}
