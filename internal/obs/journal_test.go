package obs

import (
	"bufio"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestJournalRecordAndSnapshot(t *testing.T) {
	j := NewJournal(8)
	j.Record(Entry{Type: "arrival", Task: 1, Worker: -1})
	j.Record(Entry{Type: "exec", Task: 1, Worker: 2})
	if j.Len() != 2 {
		t.Fatalf("Len = %d", j.Len())
	}
	snap := j.Snapshot()
	if snap[0].Type != "arrival" || snap[1].Type != "exec" {
		t.Errorf("snapshot order wrong: %+v", snap)
	}
	if snap[0].Seq != 1 || snap[1].Seq != 2 {
		t.Errorf("sequence numbers wrong: %d, %d", snap[0].Seq, snap[1].Seq)
	}
}

func TestJournalRingEviction(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Record(Entry{Type: "arrival", Task: i, Worker: -1})
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4", j.Len())
	}
	if j.Evicted() != 6 {
		t.Errorf("Evicted = %d, want 6", j.Evicted())
	}
	snap := j.Snapshot()
	// The survivors are the most recent four, oldest first.
	for i, e := range snap {
		if e.Task != 6+i {
			t.Errorf("snapshot[%d].Task = %d, want %d", i, e.Task, 6+i)
		}
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Record(Entry{Type: "x"})
	if j.Len() != 0 || j.Evicted() != 0 || j.Snapshot() != nil {
		t.Error("nil journal not inert")
	}
	if err := j.WriteJSONL(&strings.Builder{}); err != nil {
		t.Errorf("nil journal write: %v", err)
	}
}

func TestJournalWriteJSONL(t *testing.T) {
	j := NewJournal(2)
	j.Record(Entry{Type: "arrival", Task: 1, Worker: -1})
	j.Record(Entry{Type: "exec", Task: 1, Worker: 0, Hit: true})
	j.Record(Entry{Type: "purge", Task: 2, Worker: -1}) // evicts the arrival

	var b strings.Builder
	if err := j.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3 (truncation meta + 2 entries)", len(lines))
	}
	if lines[0]["type"] != "journal-truncated" || lines[0]["evicted"].(float64) != 1 {
		t.Errorf("missing truncation meta line: %v", lines[0])
	}
	if lines[1]["type"] != "exec" || lines[2]["type"] != "purge" {
		t.Errorf("entries wrong: %v", lines)
	}
}

// TestJournalExportConsistentUnderBurst is the regression test for the
// drop-accounting race: WriteJSONL used to take the snapshot and read the
// eviction counter under separate lock acquisitions, so a burst of writes
// between the two could report drops for entries that were still present in
// the snapshot. Export must return a pair where the eviction count is
// exactly the sequence numbers missing before the first retained entry.
func TestJournalExportConsistentUnderBurst(t *testing.T) {
	j := NewJournal(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
					j.Record(Entry{Type: "exec", Task: k})
				}
			}
		}()
	}
	for reads := 0; reads < 200; reads++ {
		entries, evicted := j.Export()
		for i, e := range entries {
			if want := evicted + int64(i) + 1; e.Seq != want {
				t.Fatalf("read %d: entry %d has seq %d, want %d (evicted=%d): snapshot and drop count are inconsistent",
					reads, i, e.Seq, want, evicted)
			}
		}
		var b strings.Builder
		if err := j.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// A final quiescent export must also reconcile with the total recorded.
	entries, evicted := j.Export()
	if int64(len(entries))+evicted != j.Evicted()+int64(j.Len()) {
		t.Errorf("export disagrees with accessors: %d+%d vs %d+%d",
			len(entries), evicted, j.Len(), j.Evicted())
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(128)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				j.Record(Entry{Type: "exec", Task: k})
			}
		}()
	}
	wg.Wait()
	if got := int64(j.Len()) + j.Evicted(); got != 800 {
		t.Errorf("retained+evicted = %d, want 800", got)
	}
	snap := j.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatalf("snapshot not in record order at %d: %d then %d", i, snap[i-1].Seq, snap[i].Seq)
		}
	}
}

// checkRingModel records total entries into a journal of capacity cap and
// checks it against a plain-slice model at probe records and at the end:
// Len, Evicted, Export, View and the blocks allocated so far.
func checkRingModel(t *testing.T, cap, total, probe int) {
	t.Helper()
	j := NewJournal(cap)
	check := func(recorded int) {
		t.Helper()
		kept := min(recorded, cap)
		evicted := int64(recorded - kept)
		if j.Len() != kept || j.Evicted() != evicted {
			t.Fatalf("cap %d after %d records: Len %d Evicted %d, want %d and %d",
				cap, recorded, j.Len(), j.Evicted(), kept, evicted)
		}
		if blocks := (kept + journalBlock - 1) / journalBlock; len(j.blocks) != blocks {
			t.Fatalf("cap %d after %d records: %d blocks allocated, want %d", cap, recorded, len(j.blocks), blocks)
		}
		// The model keeps the newest kept records; record k carries Task k.
		entries, ev := j.Export()
		if len(entries) != kept || ev != evicted {
			t.Fatalf("cap %d after %d records: Export gave %d entries, %d evicted", cap, recorded, len(entries), ev)
		}
		for i, e := range entries {
			if want := recorded - kept + i + 1; e.Task != want || e.Seq != int64(want) {
				t.Fatalf("cap %d after %d records: Export[%d] = task %d seq %d, want %d", cap, recorded, i, e.Task, e.Seq, want)
			}
		}
		j.View(func(v JournalView) {
			if v.Len() != kept || v.Evicted() != evicted {
				t.Fatalf("cap %d after %d records: view Len %d Evicted %d", cap, recorded, v.Len(), v.Evicted())
			}
			for i := 0; i < v.Len(); i++ {
				if *v.At(i) != entries[i] {
					t.Fatalf("cap %d after %d records: View.At(%d) = %+v, Export has %+v", cap, recorded, i, *v.At(i), entries[i])
				}
			}
		})
	}
	for k := 1; k <= total; k++ {
		j.Record(Entry{Type: "exec", Task: k})
		if k == probe {
			check(k)
		}
	}
	check(total)
}

func TestJournalChunkedRingMatchesSliceModel(t *testing.T) {
	// Capacities below, at, just past and well past block boundaries, none
	// but the first two a multiple of the block size; each is filled short
	// of, exactly to, and several times around its capacity.
	for _, cap := range []int{1, journalBlock, 5, journalBlock - 1, journalBlock + 1, 2*journalBlock + 17, 3*journalBlock - 3} {
		for _, total := range []int{0, cap / 2, cap - 1, cap, cap + 1, 2*cap + journalBlock/3, 3*cap + 1} {
			checkRingModel(t, cap, total, total/2)
		}
	}
}

// TestNewJournalAllocatesNoEntryStorage pins the point of the chunked
// ring: a journal costs nothing for entries until it records one, and then
// one block at a time.
func TestNewJournalAllocatesNoEntryStorage(t *testing.T) {
	const journals = 64
	keep := make([]*Journal, journals)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = NewJournal(DefaultJournalCap)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / journals; per > 1024 {
		t.Errorf("NewJournal(DefaultJournalCap) allocates %d bytes before its first Record", per)
	}
	j := keep[0]
	j.Record(Entry{Type: "exec"})
	if len(j.blocks) != 1 || len(j.blocks[0]) != journalBlock {
		t.Errorf("first Record allocated %d blocks, want one of %d entries", len(j.blocks), journalBlock)
	}
	if n := testing.AllocsPerRun(100, func() { j.Record(Entry{Type: "exec"}) }); n != 0 {
		t.Errorf("Record within an allocated block allocates %v times", n)
	}
}

// FuzzJournalRing checks the chunked ring against the plain-slice model
// for arbitrary capacities (capRaw+1, up to three blocks) and record
// counts (up to four times the capacity), probing once mid-run.
func FuzzJournalRing(f *testing.F) {
	f.Add(uint16(2), uint16(10), uint16(4))
	f.Add(uint16(journalBlock-1), uint16(journalBlock), uint16(1))
	f.Add(uint16(journalBlock), uint16(2*journalBlock+5), uint16(journalBlock))
	f.Fuzz(func(t *testing.T, capRaw, totalRaw, probeRaw uint16) {
		cap := int(capRaw)%(3*journalBlock) + 1
		total := int(totalRaw) % (4*cap + 1)
		checkRingModel(t, cap, total, int(probeRaw)%(total+1))
	})
}
