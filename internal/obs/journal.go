package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"rtsads/internal/simtime"
)

// Entry is one structured journal record: what happened, to which task or
// worker, and when — in both wall-clock and virtual time. Fields that do
// not apply carry their zero value and are omitted from the JSONL export.
type Entry struct {
	Seq     int64           `json:"seq"`
	Wall    time.Time       `json:"wall"`
	Virtual simtime.Instant `json:"virtual"`
	Type    string          `json:"type"`
	Phase   int             `json:"phase,omitempty"`
	Task    int             `json:"task,omitempty"`
	Worker  int             `json:"worker"` // -1 = the host
	Dur     time.Duration   `json:"dur,omitempty"`
	Hit     bool            `json:"hit,omitempty"`
	Detail  string          `json:"detail,omitempty"`
	// Shard tags the scheduler domain an entry came from in
	// federation-merged exports (RouterShard = the router itself);
	// single-cluster journals leave it zero.
	Shard int `json:"shard,omitempty"`
	// Slack is the task's remaining deadline slack at the entry's instant:
	// admit records d_l − t_c at admission, exec records deadline − finish
	// (negative on a scheduled miss).
	Slack time.Duration `json:"slack,omitempty"`
	// Deadline is the task's absolute deadline (arrival and admit entries),
	// so lifecycle assembly can decompose slack without the workload file.
	Deadline simtime.Instant `json:"deadline,omitempty"`
}

// RouterShard is the Entry.Shard value tagging router-side entries (route,
// migrate, route-reject) in federation-merged journals, distinguishing them
// from shard 0's own entries.
const RouterShard = -1

// DefaultJournalCap bounds the journal when no capacity is given: enough
// for every event of a sizeable run, small enough to never matter.
const DefaultJournalCap = 65536

// journalBlock is the number of entries in one block of a journal's ring
// (about 557 KB). A power of two, so ring positions split into block and
// offset with a shift and a mask.
const journalBlock = 4096

// Journal is a bounded, concurrency-safe ring of Entries recording a live
// run's lifecycle. Its capacity is an upper bound, not an up-front cost:
// entries live in fixed-size blocks, each allocated when the ring first
// reaches it, so a journal holds storage for what it has recorded rather
// than for what it may. When full it evicts the oldest entries (the
// interesting tail of a run is the recent past) and counts the evictions,
// so exports report the truncation instead of hiding it. A nil Journal
// discards records.
type Journal struct {
	mu      sync.Mutex
	blocks  [][]Entry // ring storage; the last block is cut to the capacity
	cap     int
	start   int // ring read position
	n       int // live entries
	seq     int64
	evicted int64
}

// NewJournal returns a journal keeping at most cap entries (cap <= 0
// selects DefaultJournalCap). It allocates no entry storage until its
// first Record.
func NewJournal(cap int) *Journal {
	if cap <= 0 {
		cap = DefaultJournalCap
	}
	return &Journal{cap: cap}
}

// at returns the entry at ring position p (0 <= p < cap).
func (j *Journal) at(p int) *Entry {
	return &j.blocks[p/journalBlock][p%journalBlock]
}

// Record appends an entry, stamping its sequence number. Safe for
// concurrent use.
func (j *Journal) Record(e Entry) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	if j.n < j.cap {
		// Not yet full, so the ring has never wrapped and start is 0.
		if j.n == len(j.blocks)*journalBlock {
			j.blocks = append(j.blocks, make([]Entry, min(journalBlock, j.cap-j.n)))
		}
		*j.at(j.n) = e
		j.n++
	} else {
		*j.at(j.start) = e
		if j.start++; j.start == j.cap {
			j.start = 0
		}
		j.evicted++
	}
	j.mu.Unlock()
}

// Len returns the number of retained entries.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Evicted returns how many entries were overwritten because the journal
// was full.
func (j *Journal) Evicted() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.evicted
}

// JournalView reads a journal's retained entries in place. It is valid
// only inside the Journal.View call that provides it.
type JournalView struct{ j *Journal }

// Len returns the number of retained entries.
func (v JournalView) Len() int { return v.j.n }

// Evicted returns the eviction count, consistent with the entries:
// At(i).Seq == Evicted() + i + 1.
func (v JournalView) Evicted() int64 { return v.j.evicted }

// At returns the i-th retained entry, oldest first (0 <= i < Len()). The
// pointer aliases the journal's storage: read it, do not keep it.
func (v JournalView) At(i int) *Entry {
	p := v.j.start + i
	if p >= v.j.cap {
		p -= v.j.cap
	}
	return v.j.at(p)
}

// View calls fn with an in-place view of the retained entries, holding
// the journal lock throughout, so an encoder reads the entries where they
// are instead of copying them first. Record blocks until fn returns; fn
// must not call back into the journal. A nil journal passes an empty view.
func (j *Journal) View(fn func(JournalView)) {
	if j == nil {
		fn(JournalView{j: &Journal{}})
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	fn(JournalView{j: j})
}

// Snapshot returns the retained entries in record order (oldest first).
func (j *Journal) Snapshot() []Entry {
	entries, _ := j.Export()
	return entries
}

// Export returns a copy of the retained entries (oldest first) together
// with the eviction count, read under one lock so the pair is consistent:
// evicted is exactly the sequence numbers missing before the first
// retained entry (entries[i].Seq == evicted + i + 1). Reading them
// separately can pair a snapshot with an eviction count from a later
// burst of writes, reporting drops for entries that are still present.
// Callers that only read the entries should use View, which copies
// nothing.
func (j *Journal) Export() ([]Entry, int64) {
	if j == nil {
		return nil, 0
	}
	var out []Entry
	var evicted int64
	j.View(func(v JournalView) {
		out = make([]Entry, v.Len())
		for i := range out {
			out[i] = *v.At(i)
		}
		evicted = v.Evicted()
	})
	return out, evicted
}

// WriteJSONL writes the retained entries as JSON Lines, one entry per
// line. When entries were evicted, a leading meta line reports how many.
// It encodes in place under the journal lock (see View), so Record waits
// on w: hand it a file or a buffer, not a writer that can stall.
func (j *Journal) WriteJSONL(w io.Writer) error {
	if j == nil {
		return nil
	}
	var err error
	j.View(func(v JournalView) {
		enc := json.NewEncoder(w)
		if err = writeTruncationMeta(enc, v.Evicted()); err != nil {
			return
		}
		for i := 0; i < v.Len() && err == nil; i++ {
			err = enc.Encode(v.At(i))
		}
	})
	return err
}

// WriteEntriesJSONL writes entries as JSON Lines with a leading
// journal-truncated meta line when evicted > 0 — the serialization shared
// by single-journal and federation-merged exports.
func WriteEntriesJSONL(w io.Writer, entries []Entry, evicted int64) error {
	enc := json.NewEncoder(w)
	if err := writeTruncationMeta(enc, evicted); err != nil {
		return err
	}
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return err
		}
	}
	return nil
}

// writeTruncationMeta writes the journal-truncated meta line that leads a
// JSONL export when evicted > 0.
func writeTruncationMeta(enc *json.Encoder, evicted int64) error {
	if evicted <= 0 {
		return nil
	}
	meta := struct {
		Type    string `json:"type"`
		Evicted int64  `json:"evicted"`
	}{"journal-truncated", evicted}
	return enc.Encode(meta)
}
