package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// taskJSON is the stable on-disk form of one task. Durations and instants
// are nanoseconds; affinity is the list of worker indices holding the
// task's data.
type taskJSON struct {
	ID       int32 `json:"id"`
	Arrival  int64 `json:"arrivalNanos"`
	Proc     int64 `json:"procNanos"`
	Actual   int64 `json:"actualNanos,omitempty"`
	Deadline int64 `json:"deadlineNanos"`
	Affinity []int `json:"affinity"`
	Payload  int32 `json:"payload,omitempty"`
}

// SaveTasks writes a task set as a JSON array, one object per task — the
// interchange format for replaying workloads outside the generator (or
// importing external traces into the machine).
func SaveTasks(w io.Writer, tasks []*task.Task) error {
	out := make([]taskJSON, len(tasks))
	for i, t := range tasks {
		out[i] = taskJSON{
			ID:       int32(t.ID),
			Arrival:  int64(t.Arrival),
			Proc:     int64(t.Proc),
			Actual:   int64(t.Actual),
			Deadline: int64(t.Deadline),
			Affinity: t.Affinity.Procs(),
			Payload:  t.Payload,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// LoadTasks reads a task set previously written by SaveTasks (or produced
// by an external tool in the same format), validating every record.
func LoadTasks(r io.Reader) ([]*task.Task, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var in []taskJSON
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("workload: parse tasks: %w", err)
	}
	tasks := make([]*task.Task, len(in))
	for i, tj := range in {
		if len(tj.Affinity) == 0 {
			return nil, fmt.Errorf("workload: task %d has no affinity", tj.ID)
		}
		var set affinity.Set
		for _, p := range tj.Affinity {
			if p < 0 || p >= affinity.MaxProcs {
				return nil, fmt.Errorf("workload: task %d affinity %d out of range", tj.ID, p)
			}
			set = set.Add(p)
		}
		t := &task.Task{
			ID:       task.ID(tj.ID),
			Arrival:  simtime.Instant(tj.Arrival),
			Proc:     time.Duration(tj.Proc),
			Actual:   time.Duration(tj.Actual),
			Deadline: simtime.Instant(tj.Deadline),
			Affinity: set,
			Payload:  tj.Payload,
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("workload: %w", err)
		}
		tasks[i] = t
	}
	return tasks, nil
}
