package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/obs"
	"rtsads/internal/rng"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// pipe returns a connected framed pair.
func pipe(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return NewConn(a), NewConn(b)
}

func TestHandshake(t *testing.T) {
	a, b := pipe(t)
	errCh := make(chan error, 1)
	go func() { errCh <- a.WriteHandshake() }()
	if err := b.ReadHandshake(); err != nil {
		t.Fatalf("ReadHandshake: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteHandshake: %v", err)
	}
}

// TestHandshakeRejectsWrongVersion covers an unknown future version and
// the previous one: a version 2 peer ships JSON journals, so it must fail
// at the handshake rather than at its first Journal frame.
func TestHandshakeRejectsWrongVersion(t *testing.T) {
	for _, v := range []byte{Version - 1, 0x7f} {
		a, b := net.Pipe()
		go func() { a.Write([]byte{Magic[0], Magic[1], Magic[2], Magic[3], v}) }()
		err := NewConn(b).ReadHandshake()
		a.Close()
		b.Close()
		if err == nil {
			t.Fatalf("handshake accepted version %d", v)
		}
	}
}

func TestHandshakeRejectsBadMagic(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() { a.Write([]byte("HTTP\x01")) }()
	if err := NewConn(b).ReadHandshake(); err == nil {
		t.Fatal("handshake accepted foreign magic")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pipe(t)
	payload := []byte("hello, shard")
	// Writes on one Conn must be serialized by the caller; join each write
	// goroutine before issuing the next.
	errCh := make(chan error, 1)
	go func() { errCh <- a.WriteFrame(TypeSeal, payload) }()
	typ, got, err := b.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if typ != TypeSeal || string(got) != string(payload) {
		t.Fatalf("got frame (%d, %q), want (%d, %q)", typ, got, TypeSeal, payload)
	}
	// Empty payloads (heartbeats, seals) must round-trip too.
	go func() { errCh <- a.WriteFrame(TypeHeartbeat, nil) }()
	typ, got, err = b.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame empty: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteFrame empty: %v", err)
	}
	if typ != TypeHeartbeat || len(got) != 0 {
		t.Fatalf("got frame (%d, %d bytes), want (%d, 0 bytes)", typ, len(got), TypeHeartbeat)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		a.Write([]byte{0xff, 0xff, 0xff, 0xff, TypeSubmit})
	}()
	if _, _, err := NewConn(b).ReadFrame(); err == nil {
		t.Fatal("ReadFrame accepted an oversize frame header")
	}
}

func TestTaskCodecRoundTrip(t *testing.T) {
	src := rng.New(7)
	tasks := make([]*task.Task, 64)
	for i := range tasks {
		tasks[i] = &task.Task{
			ID:       task.ID(src.Intn(1 << 20)),
			Arrival:  simtime.Instant(src.Intn(1 << 40)),
			Proc:     time.Duration(src.Intn(1 << 30)),
			Deadline: simtime.Instant(src.Intn(1 << 41)),
			Affinity: affinity.Set(src.Uint64()),
			Actual:   time.Duration(src.Intn(1 << 29)),
			Payload:  int32(src.Intn(1 << 16)),
		}
	}
	// Extremes: zero task, Never deadline, negative payload.
	tasks = append(tasks,
		&task.Task{},
		&task.Task{ID: math.MaxInt32, Deadline: simtime.Never, Affinity: ^affinity.Set(0)},
		&task.Task{ID: 1, Payload: -3},
	)

	payload := AppendSubmit(nil, tasks)
	wantLen := 4 + len(tasks)*TaskRecordSize
	if len(payload) != wantLen {
		t.Fatalf("submit payload is %d bytes, want %d", len(payload), wantLen)
	}
	got, err := DecodeSubmit(payload, func() *task.Task { return new(task.Task) })
	if err != nil {
		t.Fatalf("DecodeSubmit: %v", err)
	}
	if len(got) != len(tasks) {
		t.Fatalf("decoded %d tasks, want %d", len(got), len(tasks))
	}
	for i := range tasks {
		if !reflect.DeepEqual(*got[i], *tasks[i]) {
			t.Fatalf("task %d: got %+v, want %+v", i, *got[i], *tasks[i])
		}
	}
}

func TestDecodeSubmitRejectsTruncated(t *testing.T) {
	payload := AppendSubmit(nil, []*task.Task{{ID: 1}, {ID: 2}})
	for _, cut := range []int{1, 4, 5, len(payload) - 1} {
		if _, err := DecodeSubmit(payload[:cut], func() *task.Task { return new(task.Task) }); err == nil {
			t.Fatalf("DecodeSubmit accepted a %d-byte truncation", cut)
		}
	}
}

func TestRejectVerdictRoundTrip(t *testing.T) {
	r := Reject{ID: 99, Reason: "queue-full", NowNano: 123456789}
	got, err := DecodeReject(EncodeReject(nil, r))
	if err != nil {
		t.Fatalf("DecodeReject: %v", err)
	}
	if got != r {
		t.Fatalf("reject round-trip: got %+v, want %+v", got, r)
	}
	if _, err := DecodeReject([]byte{1, 2, 3}); err == nil {
		t.Fatal("DecodeReject accepted a truncated payload")
	}

	for _, v := range []Verdict{{ID: 7, Accepted: true}, {ID: -1, Accepted: false}} {
		got, err := DecodeVerdict(EncodeVerdict(nil, v))
		if err != nil {
			t.Fatalf("DecodeVerdict: %v", err)
		}
		if got != v {
			t.Fatalf("verdict round-trip: got %+v, want %+v", got, v)
		}
	}
	if _, err := DecodeVerdict([]byte{0}); err == nil {
		t.Fatal("DecodeVerdict accepted a truncated payload")
	}
}

// TestCheckpointRoundTrip sends a Checkpoint frame across a framed pair and
// demands the durable-progress payload — sequence, settled IDs, cumulative
// verdict counters and seal bit — survive the wire exactly.
func TestCheckpointRoundTrip(t *testing.T) {
	a, b := pipe(t)
	want := Checkpoint{
		Seq:     7,
		Settled: []int32{3, 11, 42},
		Counters: map[string]int64{
			"rtsads_tasks_hit_total":  2,
			"rtsads_tasks_lost_total": 1,
		},
		Sealed: true,
	}
	payload, err := json.Marshal(want)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- a.WriteFrame(TypeCheckpoint, payload) }()
	typ, body, err := b.ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if typ != TypeCheckpoint {
		t.Fatalf("frame type = %d, want %d", typ, TypeCheckpoint)
	}
	var got Checkpoint
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("checkpoint round-trip: got %+v, want %+v", got, want)
	}
}

// TestHelloRejoinFieldsRoundTrip checks the v2 rejoin handshake fields ship
// through the Hello JSON, and that a first-contact hello omits them — v1
// shards must never see rejoin keys they would not understand.
func TestHelloRejoinFieldsRoundTrip(t *testing.T) {
	h := Hello{Shards: 2, WorkersPerShard: 2, Shard: 1, Rejoin: true, Epoch: 3, ResumeSeq: 19}
	payload, err := json.Marshal(h)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got Hello
	if err := json.Unmarshal(payload, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !got.Rejoin || got.Epoch != 3 || got.ResumeSeq != 19 {
		t.Fatalf("rejoin fields lost in round-trip: %+v", got)
	}

	first, err := json.Marshal(Hello{Shards: 2, WorkersPerShard: 2})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, key := range []string{"rejoin", "epoch", "resume_seq"} {
		if strings.Contains(string(first), key) {
			t.Errorf("first-contact hello leaks %q: %s", key, first)
		}
	}
}

// sampleJournal builds a shard journal shaped like a live run's: per task
// an arrival, an admit, a deliver and an exec, a phase-start/phase-end
// pair per eight tasks, and a bounce with its reason every tenth task.
func sampleJournal(tasks int) []obs.Entry {
	base := time.Unix(1_760_000_000, 123_456_789)
	var out []obs.Entry
	add := func(e obs.Entry) {
		e.Seq = int64(len(out) + 1)
		e.Wall = base.Add(time.Duration(len(out)) * 3 * time.Microsecond)
		out = append(out, e)
	}
	for id := 1; id <= tasks; id++ {
		at := simtime.Instant(id) * simtime.Instant(50*time.Microsecond)
		deadline := at.Add(2 * time.Millisecond)
		phase := id/8 + 1
		if id%8 == 1 {
			add(obs.Entry{Virtual: at, Type: "phase-start", Phase: phase, Worker: -1})
		}
		add(obs.Entry{Virtual: at, Type: "arrival", Task: id, Worker: -1, Deadline: deadline})
		if id%10 == 0 {
			add(obs.Entry{Virtual: at, Type: "bounce", Task: id, Worker: -1, Detail: "queue-full"})
			continue
		}
		add(obs.Entry{Virtual: at, Type: "admit", Task: id, Worker: -1, Slack: 1900 * time.Microsecond, Deadline: deadline})
		add(obs.Entry{Virtual: at + 40_000, Type: "deliver", Phase: phase, Task: id, Worker: id % 4, Dur: 8 * time.Microsecond})
		add(obs.Entry{Virtual: at + 60_000, Type: "exec", Task: id, Worker: id % 4, Dur: 310 * time.Microsecond,
			Hit: id%7 != 0, Slack: time.Duration(id%7-1) * 90 * time.Microsecond})
		if id%8 == 0 {
			add(obs.Entry{Virtual: at + 45_000, Type: "phase-end", Phase: phase, Worker: -1, Dur: 37 * time.Microsecond})
		}
	}
	return out
}

// equalEntries compares journals field by field, Wall by instant: a decoded
// Wall carries neither the monotonic reading nor the location of the
// original.
func equalEntries(t *testing.T, got, want []obs.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Wall.Equal(w.Wall) || g.Wall.IsZero() != w.Wall.IsZero() {
			t.Fatalf("entry %d: Wall %v, want %v", i, g.Wall, w.Wall)
		}
		g.Wall, w.Wall = time.Time{}, time.Time{}
		if g != w {
			t.Fatalf("entry %d: got %+v, want %+v", i, g, w)
		}
	}
}

func TestJournalCodecRoundTrip(t *testing.T) {
	edge := []obs.Entry{
		{Seq: 1, Type: "run-start", Worker: -1, Detail: "4 workers"}, // zero Wall
		{Seq: 2, Wall: time.Unix(0, 1), Virtual: 7, Type: "route", Task: 3, Worker: 1,
			Shard: obs.RouterShard, Detail: "affinity"},
		{Seq: 3, Wall: time.Unix(1_760_000_000, 999_999_999).UTC(), Virtual: simtime.Never,
			Type: "exec", Task: math.MaxInt32, Worker: 3, Dur: time.Hour,
			Slack: -250 * time.Microsecond, Shard: 1},
		{Seq: math.MaxInt64, Wall: time.Unix(-1, 0), Virtual: -5, Type: "admit", Phase: -2,
			Task: -1, Worker: math.MinInt32, Slack: math.MinInt64, Deadline: math.MaxInt64, Hit: true},
		{Type: ""},
	}
	cases := []struct {
		name    string
		entries []obs.Entry
		evicted int64
	}{
		{"empty", nil, 0},
		{"empty-evicted", nil, 9},
		{"edges", edge, 0},
		{"sample-evicted", sampleJournal(200), 1 << 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := AppendJournal(nil, tc.entries, tc.evicted)
			got, evicted, err := DecodeJournal(payload)
			if err != nil {
				t.Fatalf("DecodeJournal: %v", err)
			}
			if evicted != tc.evicted {
				t.Fatalf("evicted = %d, want %d", evicted, tc.evicted)
			}
			equalEntries(t, got, tc.entries)
		})
	}
	// The shard encodes into a buffer it can reuse: no allocation.
	entries := sampleJournal(100)
	buf := AppendJournal(nil, entries, 0)
	if n := testing.AllocsPerRun(10, func() { buf = AppendJournal(buf[:0], entries, 0) }); n != 0 {
		t.Errorf("AppendJournal into a reused buffer allocates %v times per call", n)
	}
}

// TestAppendJournalFromMatchesExport pins the session-close encoder: a
// Journal frame encoded straight from the ring is byte for byte the one
// encoded from an exported copy, on a ring that wrapped across blocks and
// evicted, and it decodes back to the exported entries.
func TestAppendJournalFromMatchesExport(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cap, from int
	}{
		{"empty", 10, 0},
		{"partial", 10_000, 300},
		{"wrapped", 6_000, 2_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j := obs.NewJournal(tc.cap)
			for _, e := range sampleJournal(tc.from) {
				j.Record(e)
			}
			entries, evicted := j.Export()
			if tc.name == "wrapped" && evicted == 0 {
				t.Fatalf("%d entries into a ring of %d evicted nothing", len(entries), tc.cap)
			}
			want := AppendJournal(nil, entries, evicted)
			got := AppendJournalFrom(nil, j)
			if !bytes.Equal(got, want) {
				t.Fatalf("AppendJournalFrom gave %d bytes, AppendJournal(Export()) %d; they differ", len(got), len(want))
			}
			decoded, dev, err := DecodeJournal(got)
			if err != nil {
				t.Fatalf("DecodeJournal: %v", err)
			}
			if dev != evicted {
				t.Fatalf("evicted = %d, want %d", dev, evicted)
			}
			equalEntries(t, decoded, entries)
			// Appending to a prefix keeps the prefix, and a reused buffer
			// allocates nothing.
			if again := AppendJournalFrom([]byte("hdr"), j); !bytes.Equal(again, append([]byte("hdr"), want...)) {
				t.Fatal("AppendJournalFrom does not append to dst")
			}
			buf := got
			if n := testing.AllocsPerRun(10, func() { buf = AppendJournalFrom(buf[:0], j) }); n != 0 {
				t.Errorf("AppendJournalFrom into a reused buffer allocates %v times per call", n)
			}
		})
	}
	var nilJournal *obs.Journal
	if got, want := AppendJournalFrom(nil, nilJournal), AppendJournal(nil, nil, 0); !bytes.Equal(got, want) {
		t.Errorf("nil journal encodes as %x, want %x", got, want)
	}
}

func TestDecodeJournalRejectsMalformed(t *testing.T) {
	payload := AppendJournal(nil, sampleJournal(3), 2)
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := DecodeJournal(payload[:cut]); err == nil {
			t.Fatalf("DecodeJournal accepted a %d-byte truncation of %d", cut, len(payload))
		}
	}
	cases := []struct {
		name    string
		payload []byte
		wantErr string
	}{
		{"trailing", append(append([]byte(nil), payload...), 0), "trailing"},
		// One entry: evicted 0, count 1, flags 0, Seq 1, Virtual 2, then a
		// 127-byte Type in a 14-byte entry.
		{"string-overrun", []byte{0, 1, 0, 2, 4, 0x7f, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0}, "overruns"},
		// A count far beyond what the payload could hold.
		{"count", []byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}, "announces"},
		{"flags", []byte{0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "unknown flags"},
		// varint(-1) evicted entries.
		{"evicted", []byte{1, 0}, "evicted"},
		// An 11-byte varint overflows 64 bits.
		{"varint-overflow", []byte{0, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "malformed"},
	}
	for _, tc := range cases {
		_, _, err := DecodeJournal(tc.payload)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: DecodeJournal(%x) error = %v, want one mentioning %q", tc.name, tc.payload, err, tc.wantErr)
		}
	}
}

// FuzzDecodeJournal feeds the Journal decoder arbitrary payloads — what a
// corrupt or hostile shard can send. It must never panic, must size what
// it allocates by the payload (at most one entry per minEntrySize bytes),
// and whatever it accepts must survive a re-encode unchanged.
func FuzzDecodeJournal(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendJournal(nil, nil, 0))
	f.Add(AppendJournal(nil, sampleJournal(2), 1))
	f.Add(AppendJournal(nil, []obs.Entry{{Seq: 1, Type: "route", Worker: 2, Shard: obs.RouterShard, Detail: "x"}}, 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		entries, evicted, err := DecodeJournal(payload)
		if err != nil {
			return
		}
		if cap(entries)*minEntrySize > len(payload) {
			t.Fatalf("%d entries allocated for a %d-byte payload", cap(entries), len(payload))
		}
		again, evicted2, err := DecodeJournal(AppendJournal(nil, entries, evicted))
		if err != nil {
			t.Fatalf("re-encoded journal does not decode: %v", err)
		}
		if evicted2 != evicted {
			t.Fatalf("evicted %d after re-encode, want %d", evicted2, evicted)
		}
		equalEntries(t, again, entries)
	})
}

var sinkEntries []obs.Entry

// BenchmarkJournalCodec times the Journal frame codec on a live-shaped
// journal, beside encoding/json on the same entries for reference (the
// Journal frame was JSON through wire version 2). Each reports bytes and
// nanoseconds per entry.
func BenchmarkJournalCodec(b *testing.B) {
	entries := sampleJournal(1000)
	perEntry := func(b *testing.B, size int) {
		b.ReportMetric(float64(size)/float64(len(entries)), "B/entry")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(entries)), "ns/entry")
	}
	payload := AppendJournal(nil, entries, 0)
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(payload))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = AppendJournal(buf[:0], entries, 0)
		}
		perEntry(b, len(buf))
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, _, err := DecodeJournal(payload)
			if err != nil {
				b.Fatal(err)
			}
			sinkEntries = got
		}
		perEntry(b, len(payload))
	})
	type jsonJournal struct {
		Entries []obs.Entry `json:"entries"`
		Evicted int64       `json:"evicted"`
	}
	js, err := json.Marshal(jsonJournal{Entries: entries})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("json-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(jsonJournal{Entries: entries}); err != nil {
				b.Fatal(err)
			}
		}
		perEntry(b, len(js))
	})
	b.Run("json-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var j jsonJournal
			if err := json.Unmarshal(js, &j); err != nil {
				b.Fatal(err)
			}
			sinkEntries = j.Entries
		}
		perEntry(b, len(js))
	})
}
