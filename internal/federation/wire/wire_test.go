package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"rtsads/internal/admission"
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
// the previous two: a version 2 peer ships JSON journals and a version 3
// peer one Reject frame per bounced task, so each must fail at the
// handshake rather than at its first Journal or Reject frame.
func TestHandshakeRejectsWrongVersion(t *testing.T) {
	if Version != 4 {
		t.Fatalf("Version = %d; extend this test with the versions it replaces", Version)
	}
	for _, v := range []byte{2, 3, 0x7f} {
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

// TestTaskCodecRoundTrip round-trips random valid tasks through a Submit
// payload, and bit patterns no valid task has through the record codec
// alone: the record layout is lossless for any value, while DecodeSubmit
// also validates (TestDecodeSubmitRejectsInvalid).
func TestTaskCodecRoundTrip(t *testing.T) {
	// Extremes: zero task, Never deadline, negative fields.
	for _, want := range []task.Task{
		{},
		{ID: math.MaxInt32, Deadline: simtime.Never, Affinity: ^affinity.Set(0)},
		{ID: -1, Arrival: -2, Proc: -3, Deadline: -4, Actual: -5, Payload: -6},
	} {
		var got task.Task
		DecodeTask(AppendTask(nil, &want), &got)
		if got != want {
			t.Fatalf("record round-trip: got %+v, want %+v", got, want)
		}
	}

	src := rng.New(7)
	tasks := make([]*task.Task, 64)
	for i := range tasks {
		arrival := simtime.Instant(src.Intn(1 << 40))
		proc := time.Duration(1 + src.Intn(1<<30))
		tasks[i] = &task.Task{
			ID:       task.ID(src.Intn(1 << 20)),
			Arrival:  arrival,
			Proc:     proc,
			Deadline: arrival.Add(time.Duration(src.Intn(1 << 41))),
			Affinity: affinity.Set(src.Uint64()),
			Actual:   time.Duration(src.Intn(int(proc) + 1)),
			Payload:  int32(src.Intn(1<<16)) - 1<<15,
		}
	}
	// Valid edges: empty affinity (a localized task may have none), Never
	// deadline, zero Actual.
	tasks = append(tasks,
		&task.Task{ID: 1, Proc: 1},
		&task.Task{ID: math.MaxInt32, Proc: 1, Deadline: simtime.Never, Affinity: ^affinity.Set(0)},
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

// TestDecodeSubmitRejectsInvalid sends one bad record among good ones for
// each task.Validate rule: the whole frame fails, and the error names the
// record and the field.
func TestDecodeSubmitRejectsInvalid(t *testing.T) {
	valid := task.Task{ID: 7, Arrival: 10, Proc: 100, Actual: 50, Deadline: 500}
	cases := []struct {
		name   string
		mutate func(*task.Task)
		want   string
	}{
		{"zero proc", func(tt *task.Task) { tt.Proc = 0 }, "Proc"},
		{"negative proc", func(tt *task.Task) { tt.Proc = -1 }, "Proc"},
		{"negative actual", func(tt *task.Task) { tt.Actual = -1 }, "Actual"},
		{"actual beyond proc", func(tt *task.Task) { tt.Actual = tt.Proc + 1 }, "Actual"},
		{"negative arrival", func(tt *task.Task) { tt.Arrival, tt.Deadline = -1, 5 }, "Arrival"},
		{"deadline before arrival", func(tt *task.Task) { tt.Deadline = tt.Arrival - 1 }, "Deadline"},
	}
	for _, c := range cases {
		bad := valid
		c.mutate(&bad)
		good := valid
		payload := AppendSubmit(nil, []*task.Task{&good, &bad, &good})
		_, err := DecodeSubmit(payload, func() *task.Task { return new(task.Task) })
		if err == nil {
			t.Errorf("%s: DecodeSubmit accepted %+v", c.name, bad)
			continue
		}
		if !strings.Contains(err.Error(), "record 1") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name record 1 and field %s", c.name, err, c.want)
		}
	}
	if _, err := DecodeSubmit(AppendSubmit(nil, []*task.Task{&valid}), func() *task.Task { return new(task.Task) }); err != nil {
		t.Fatalf("valid record rejected: %v", err)
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
	for _, want := range []Reject{
		{Seq: 1, NowNano: 123456789},
		{Seq: 9, NowNano: -1, Entries: []RejectEntry{{ID: 99, Reason: admission.QueueFull}}},
		{Seq: math.MaxUint32, NowNano: math.MaxInt64, Entries: []RejectEntry{
			{ID: 1, Reason: admission.Hopeless}, {ID: -1, Reason: admission.QueueFull},
			{ID: math.MaxInt32, Reason: admission.Infeasible}, {ID: 4, Reason: admission.ShardDown},
			{ID: 5, Reason: admission.ShuttingDown},
		}},
	} {
		payload, err := AppendReject(nil, want)
		if err != nil {
			t.Fatalf("AppendReject: %v", err)
		}
		if len(payload) != rejectHeader+rejectEntrySize*len(want.Entries) {
			t.Fatalf("reject payload is %d bytes for %d entries", len(payload), len(want.Entries))
		}
		var got Reject
		if err := DecodeReject(payload, &got); err != nil {
			t.Fatalf("DecodeReject: %v", err)
		}
		if got.Seq != want.Seq || got.NowNano != want.NowNano || len(got.Entries) != len(want.Entries) {
			t.Fatalf("reject round-trip: got %+v, want %+v", got, want)
		}
		for i := range want.Entries {
			if got.Entries[i] != want.Entries[i] {
				t.Fatalf("reject entry %d: got %+v, want %+v", i, got.Entries[i], want.Entries[i])
			}
		}
	}
	if _, err := AppendReject(nil, Reject{Entries: []RejectEntry{{ID: 1, Reason: "bogus"}}}); err == nil {
		t.Fatal("AppendReject encoded a reason with no wire code")
	}
	good, _ := AppendReject(nil, Reject{Seq: 1, Entries: []RejectEntry{{ID: 3, Reason: admission.Hopeless}}})
	for name, bad := range map[string][]byte{
		"truncated":     good[:len(good)-1],
		"short header":  good[:rejectHeader-1],
		"trailing byte": append(append([]byte(nil), good...), 0),
		"reason 0":      append(append([]byte(nil), good[:len(good)-1]...), 0),
		"reason 200":    append(append([]byte(nil), good[:len(good)-1]...), 200),
		"huge count":    {0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
	} {
		var r Reject
		if err := DecodeReject(bad, &r); err == nil {
			t.Errorf("DecodeReject accepted %s payload", name)
		}
	}

	for _, want := range []Verdict{{Seq: 1}, {Seq: 7, Accepted: []bool{true}}, {Seq: 8, Accepted: []bool{false, true, true, false}}} {
		var got Verdict
		if err := DecodeVerdict(AppendVerdict(nil, want), &got); err != nil {
			t.Fatalf("DecodeVerdict: %v", err)
		}
		if got.Seq != want.Seq || !reflect.DeepEqual(append([]bool{}, got.Accepted...), append([]bool{}, want.Accepted...)) {
			t.Fatalf("verdict round-trip: got %+v, want %+v", got, want)
		}
	}
	vgood := AppendVerdict(nil, Verdict{Seq: 2, Accepted: []bool{true, false}})
	for name, bad := range map[string][]byte{
		"truncated":     vgood[:len(vgood)-1],
		"short header":  vgood[:verdictHeader-1],
		"trailing byte": append(append([]byte(nil), vgood...), 0),
		"flag 2":        append(append([]byte(nil), vgood[:len(vgood)-1]...), 2),
		"huge count":    {0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff},
	} {
		var v Verdict
		if err := DecodeVerdict(bad, &v); err == nil {
			t.Errorf("DecodeVerdict accepted %s payload", name)
		}
	}
}

// TestReadFrameGrowsWithArrivingBytes announces a MaxFrame payload and
// then closes: ReadFrame must fail without allocating anything near the
// announced size. A multi-megabyte frame still round-trips, and the grown
// buffer serves the next frame without reallocating.
func TestReadFrameGrowsWithArrivingBytes(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c := NewConn(b)
	go func() {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], MaxFrame)
		hdr[4] = TypeJournal
		a.Write(hdr[:])
		a.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := c.ReadFrame()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadFrame accepted a payload cut off by EOF")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("ReadFrame allocated %d bytes for a header and EOF; want under 1 MiB", grew)
	}

	x, y := pipe(t)
	big := make([]byte, 5<<20+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	errCh := make(chan error, 1)
	go func() {
		if err := x.WriteFrame(TypeJournal, big); err != nil {
			errCh <- err
			return
		}
		errCh <- x.WriteFrame(TypeJournal, big[:4<<20])
	}()
	typ, got, err := y.ReadFrame()
	if err != nil || typ != TypeJournal || !bytes.Equal(got, big) {
		t.Fatalf("multi-MB frame: type %d, %d bytes, err %v; want type %d, %d bytes", typ, len(got), err, TypeJournal, len(big))
	}
	first := &got[0]
	typ, got, err = y.ReadFrame()
	if err != nil || typ != TypeJournal || !bytes.Equal(got, big[:4<<20]) {
		t.Fatalf("second frame: type %d, %d bytes, err %v", typ, len(got), err)
	}
	if &got[0] != first {
		t.Error("a smaller frame reallocated the grown read buffer")
	}
	if err := <-errCh; err != nil {
		t.Fatalf("WriteFrame: %v", err)
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

// FuzzDecodeReject feeds the Reject decoder arbitrary payloads. It must
// never panic, must allocate no more entries than the payload holds, and
// whatever it accepts must re-encode to the same bytes.
func FuzzDecodeReject(f *testing.F) {
	f.Add([]byte{})
	for _, r := range []Reject{
		{Seq: 1},
		{Seq: 2, NowNano: 1 << 40, Entries: []RejectEntry{{ID: 7, Reason: admission.QueueFull}, {ID: 8, Reason: admission.Hopeless}}},
	} {
		payload, err := AppendReject(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var r Reject
		if err := DecodeReject(payload, &r); err != nil {
			return
		}
		if rejectHeader+cap(r.Entries)*rejectEntrySize > len(payload) {
			t.Fatalf("%d entries allocated for a %d-byte payload", cap(r.Entries), len(payload))
		}
		again, err := AppendReject(nil, r)
		if err != nil {
			t.Fatalf("decoded reject does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded reject differs:\n got %x\nwant %x", again, payload)
		}
	})
}

// FuzzDecodeVerdict is FuzzDecodeReject for the Verdict decoder.
func FuzzDecodeVerdict(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendVerdict(nil, Verdict{Seq: 1}))
	f.Add(AppendVerdict(nil, Verdict{Seq: 3, Accepted: []bool{true, false, true}}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var v Verdict
		if err := DecodeVerdict(payload, &v); err != nil {
			return
		}
		if verdictHeader+cap(v.Accepted)*verdictEntrySize > len(payload) {
			t.Fatalf("%d entries allocated for a %d-byte payload", cap(v.Accepted), len(payload))
		}
		if again := AppendVerdict(nil, v); !bytes.Equal(again, payload) {
			t.Fatalf("re-encoded verdict differs:\n got %x\nwant %x", again, payload)
		}
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
