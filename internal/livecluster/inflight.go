package livecluster

import (
	"time"

	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// flight is one delivered-but-unfinished job the host tracks so it can be
// reclaimed if its worker dies.
type flight struct {
	t      *task.Task
	worker int
	due    simtime.Instant // planned completion on the worker's queue
	// gone marks a flight that has left the set (completed, expired,
	// deferred by backpressure or reclaimed); its queue entry is dropped
	// lazily when it reaches either end.
	gone bool
}

// flightSet tracks the host's in-flight jobs twice over: by task ID, for
// the completion collector, and per worker in delivery order, so the
// straggler check and the next-event bound cost O(workers) instead of a
// scan of every in-flight job.
//
// Invariant: along one worker's queue, the dues of the live flights are
// non-decreasing in delivery order. The host delivers each job at
// max(deliverAt, freeAt[k]) and advances freeAt[k] to its due, so a new
// flight's due is at least every live due before it. freeAt[k] moves back
// in only two places, and each first retires every flight whose due lies
// beyond the new value: a reclaim (takeWorker empties the queue) and a
// backpressure rollback (the rejected suffix is removed and freeAt[k] is
// floored at lastDue). So a queue's first live flight holds its worker's
// minimum due and its last live flight the maximum.
//
// Not safe for concurrent use; the host guards it with runState.mu.
type flightSet struct {
	byID   map[task.ID]*flight
	queues []flightQueue
}

func newFlightSet(workers int) *flightSet {
	return &flightSet{byID: make(map[task.ID]*flight), queues: make([]flightQueue, workers)}
}

// len counts the live flights.
func (s *flightSet) len() int { return len(s.byID) }

// add registers a flight delivered after every live flight of its worker.
// Its task must not be in flight already: the host delivers only from the
// batch, and a task re-enters the batch only after leaving the set.
func (s *flightSet) add(fl *flight) {
	s.byID[fl.t.ID] = fl
	s.queues[fl.worker].push(fl)
}

// remove retires the task's flight and returns it, or nil when the task is
// not in flight.
func (s *flightSet) remove(id task.ID) *flight {
	fl := s.byID[id]
	if fl != nil {
		delete(s.byID, id)
		fl.gone = true
	}
	return fl
}

// takeWorker retires every live flight of worker k and returns them in
// delivery order.
func (s *flightSet) takeWorker(k int) []*flight {
	q := &s.queues[k]
	var out []*flight
	for _, fl := range q.buf[q.head:] {
		if !fl.gone {
			delete(s.byID, fl.t.ID)
			fl.gone = true
			out = append(out, fl)
		}
	}
	q.reset()
	return out
}

// firstDue returns worker k's earliest live due.
func (s *flightSet) firstDue(k int) (simtime.Instant, bool) {
	if fl := s.queues[k].front(); fl != nil {
		return fl.due, true
	}
	return 0, false
}

// lastDue returns worker k's latest live due.
func (s *flightSet) lastDue(k int) (simtime.Instant, bool) {
	if fl := s.queues[k].back(); fl != nil {
		return fl.due, true
	}
	return 0, false
}

// minDue returns the earliest live due across all workers.
func (s *flightSet) minDue() (simtime.Instant, bool) {
	first, ok := simtime.Never, false
	for k := range s.queues {
		if due, has := s.firstDue(k); has {
			first, ok = first.Min(due), true
		}
	}
	return first, ok
}

// overdue appends to dst, ascending, every alive worker whose earliest live
// due is more than grace before now.
func (s *flightSet) overdue(now simtime.Instant, grace time.Duration, alive []bool, dst []int) []int {
	for k := range s.queues {
		if due, ok := s.firstDue(k); ok && alive[k] && now.After(due.Add(grace)) {
			dst = append(dst, k)
		}
	}
	return dst
}

// flightQueue is one worker's flights in delivery order: buf[head:] holds
// them, stale entries included until they reach an end.
type flightQueue struct {
	buf  []*flight
	head int
}

func (q *flightQueue) push(fl *flight) {
	if q.head > 0 && q.head >= len(q.buf)/2 {
		// Slide the live window down so the dropped prefix does not pin
		// memory or grow the backing array without bound.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, fl)
}

// front drops stale heads and returns the first live flight, or nil.
func (q *flightQueue) front() *flight {
	for q.head < len(q.buf) && q.buf[q.head].gone {
		q.buf[q.head] = nil
		q.head++
	}
	if q.head == len(q.buf) {
		q.reset()
		return nil
	}
	return q.buf[q.head]
}

// back drops stale tails and returns the last live flight, or nil.
func (q *flightQueue) back() *flight {
	for n := len(q.buf); n > q.head && q.buf[n-1].gone; n-- {
		q.buf[n-1] = nil
		q.buf = q.buf[:n-1]
	}
	if q.head == len(q.buf) {
		q.reset()
		return nil
	}
	return q.buf[len(q.buf)-1]
}

func (q *flightQueue) reset() {
	clear(q.buf)
	q.buf, q.head = q.buf[:0], 0
}
