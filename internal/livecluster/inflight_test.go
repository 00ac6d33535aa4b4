package livecluster

import (
	"slices"
	"testing"
	"time"

	"rtsads/internal/rng"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// modelFlight is the map-scan model's view of one in-flight job: the
// bookkeeping the host kept before flightSet, rescanned on every query.
type modelFlight struct {
	worker int
	due    simtime.Instant
	seq    int // delivery order
}

// TestFlightSetMatchesMapScan drives flightSet and a plain map through the
// same random sequence of host events — deliveries (advancing a freeAt
// model exactly as the host does), completions in and out of order,
// worker-side expiries, backpressure rollbacks of a delivery's suffix,
// reclaims of a worker's queue and worker deaths — and after every event
// compares the overdue set, the next straggler event and each worker's
// first and last due against a full scan of the map.
func TestFlightSetMatchesMapScan(t *testing.T) {
	const workers = 4
	const grace = 5 * time.Millisecond
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		set := newFlightSet(workers)
		model := make(map[task.ID]modelFlight)
		alive := make([]bool, workers)
		for k := range alive {
			alive[k] = true
		}
		freeAt := make([]simtime.Instant, workers)
		now := simtime.Instant(0)
		nextID, seq := task.ID(0), 0

		deliver := func(k, n int) []task.ID {
			var ids []task.ID
			for i := 0; i < n; i++ {
				start := now.Max(freeAt[k])
				due := start.Add(time.Duration(src.Intn(4)) * time.Millisecond) // zero-length jobs too
				freeAt[k] = due
				id := nextID
				nextID++
				seq++
				set.add(&flight{t: &task.Task{ID: id}, worker: k, due: due})
				model[id] = modelFlight{worker: k, due: due, seq: seq}
				ids = append(ids, id)
			}
			return ids
		}
		// pick returns a live flight of worker k: usually its oldest (workers
		// finish in order), sometimes any.
		pick := func(k int) (task.ID, bool) {
			var ids []task.ID
			for id, m := range model {
				if m.worker == k {
					ids = append(ids, id)
				}
			}
			if len(ids) == 0 {
				return 0, false
			}
			slices.SortFunc(ids, func(a, b task.ID) int { return model[a].seq - model[b].seq })
			if src.Intn(4) == 0 {
				return ids[src.Intn(len(ids))], true
			}
			return ids[0], true
		}
		reclaim := func(k int) {
			got := set.takeWorker(k)
			var want []modelFlight
			for id, m := range model {
				if m.worker == k {
					want = append(want, m)
					delete(model, id)
				}
			}
			slices.SortFunc(want, func(a, b modelFlight) int { return a.seq - b.seq })
			if len(got) != len(want) {
				t.Fatalf("seed %d: takeWorker(%d) returned %d flights, model has %d", seed, k, len(got), len(want))
			}
			for i := range got {
				if got[i].worker != k || got[i].due != want[i].due {
					t.Fatalf("seed %d: takeWorker(%d)[%d] = worker %d due %v, want due %v in delivery order",
						seed, k, i, got[i].worker, got[i].due, want[i].due)
				}
			}
			freeAt[k] = now
		}

		for step := 0; step < 400; step++ {
			k := src.Intn(workers)
			switch op := src.Intn(12); {
			case op < 4 && alive[k]:
				deliver(k, 1+src.Intn(3))
			case op < 7:
				// Completion or worker-side expiry: both retire the flight.
				if id, ok := pick(k); ok {
					if set.remove(id) == nil {
						t.Fatalf("seed %d: remove(%d) found nothing", seed, id)
					}
					delete(model, id)
				}
				if set.remove(nextID+1000) != nil {
					t.Fatalf("seed %d: remove of an unknown ID returned a flight", seed)
				}
			case op < 9 && alive[k]:
				// Backpressure: the worker took only a prefix of a delivery.
				ids := deliver(k, 1+src.Intn(4))
				accepted := src.Intn(len(ids))
				for _, id := range ids[accepted:] {
					set.remove(id)
					delete(model, id)
				}
				free := now.Add(time.Duration(src.Intn(3)) * time.Millisecond)
				if due, ok := set.lastDue(k); ok && due.After(free) {
					free = due
				}
				freeAt[k] = free
			case op < 10:
				reclaim(k)
			case op < 11 && src.Intn(3) == 0:
				// A fatal failure: reclaim, then the worker leaves for good.
				reclaim(k)
				alive[k] = false
			default:
				now = now.Add(time.Duration(src.Intn(6)) * time.Millisecond)
			}

			// Compare every query against a scan of the model.
			var wantOverdue []int
			wantMin, wantAny := simtime.Never, false
			first := make([]simtime.Instant, workers)
			last := make([]simtime.Instant, workers)
			has := make([]bool, workers)
			for _, m := range model {
				wantMin, wantAny = wantMin.Min(m.due), true
				if !has[m.worker] {
					first[m.worker], last[m.worker], has[m.worker] = m.due, m.due, true
				}
				first[m.worker] = first[m.worker].Min(m.due)
				last[m.worker] = last[m.worker].Max(m.due)
			}
			for w := 0; w < workers; w++ {
				if has[w] && alive[w] && now.After(first[w].Add(grace)) {
					wantOverdue = append(wantOverdue, w)
				}
			}
			if got := set.overdue(now, grace, alive, nil); !slices.Equal(got, wantOverdue) {
				t.Fatalf("seed %d step %d: overdue %v, map scan says %v", seed, step, got, wantOverdue)
			}
			if got, ok := set.minDue(); ok != wantAny || (ok && got != wantMin) {
				t.Fatalf("seed %d step %d: minDue (%v, %v), map scan says (%v, %v)", seed, step, got, ok, wantMin, wantAny)
			}
			for w := 0; w < workers; w++ {
				f, okF := set.firstDue(w)
				l, okL := set.lastDue(w)
				if okF != has[w] || okL != has[w] || (has[w] && (f != first[w] || l != last[w])) {
					t.Fatalf("seed %d step %d: worker %d first/last (%v,%v)/(%v,%v), map scan says (%v,%v) present=%v",
						seed, step, w, f, okF, l, okL, first[w], last[w], has[w])
				}
			}
			if set.len() != len(model) {
				t.Fatalf("seed %d step %d: len %d, model %d", seed, step, set.len(), len(model))
			}
		}
	}
}
