package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"rtsads/internal/obs"
	"rtsads/internal/simtime"
)

// The Journal frame ships a shard's lifecycle journal to the router when
// its session closes. It grows with the run's task count (several entries
// per task), so it uses a varint-packed binary codec:
//
//	payload = varint(evicted) uvarint(count) entry*count
//	entry   = flags varint(Seq) [varint(Wall.UnixNano) if flagWall]
//	          varint(Virtual) string(Type) varint(Phase) varint(Task)
//	          varint(Worker) varint(Dur) string(Detail) varint(Shard)
//	          varint(Slack) varint(Deadline)
//	string  = uvarint(len) bytes
//
// Signed fields are zig-zag varints, so the common small and negative
// values (Worker = -1, Shard = RouterShard) take one byte. A zero Wall is
// carried by the absent flagWall bit rather than by UnixNano, which is
// undefined for the zero time; non-zero Walls must lie within UnixNano's
// range (years 1678–2262).
const (
	flagWall byte = 1 << iota // Wall is non-zero and follows Seq
	flagHit                   // Entry.Hit
	flagMask = flagWall | flagHit
)

// minEntrySize is the smallest encoding of one entry: the flags byte and
// one byte for each of the eleven varints and string lengths. The decoder
// bounds the announced entry count by it before allocating.
const minEntrySize = 12

var errJournalTruncated = errors.New("wire: journal payload truncated or malformed")

// AppendJournal appends a Journal frame payload for entries (oldest first)
// and the journal's eviction count to dst. Encoding into a reused buffer
// allocates nothing.
func AppendJournal(dst []byte, entries []obs.Entry, evicted int64) []byte {
	dst = binary.AppendVarint(dst, evicted)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		dst = appendEntry(dst, &entries[i])
	}
	return dst
}

// journalEntryEstimate is the encoded size AppendJournalFrom reserves per
// entry: a live shard's entries average about 35 bytes.
const journalEntryEstimate = 40

// AppendJournalFrom appends the Journal frame payload for j's retained
// entries to dst, byte for byte what AppendJournal(dst, j.Export()) would,
// but encoding straight from the journal's storage (under its lock)
// instead of from a copy. dst grows once, sized from the entry count.
func AppendJournalFrom(dst []byte, j *obs.Journal) []byte {
	j.View(func(v obs.JournalView) {
		dst = slices.Grow(dst, 2*binary.MaxVarintLen64+v.Len()*journalEntryEstimate)
		dst = binary.AppendVarint(dst, v.Evicted())
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			dst = appendEntry(dst, v.At(i))
		}
	})
	return dst
}

func appendEntry(dst []byte, e *obs.Entry) []byte {
	var flags byte
	if !e.Wall.IsZero() {
		flags |= flagWall
	}
	if e.Hit {
		flags |= flagHit
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, e.Seq)
	if flags&flagWall != 0 {
		dst = binary.AppendVarint(dst, e.Wall.UnixNano())
	}
	dst = binary.AppendVarint(dst, int64(e.Virtual))
	dst = appendString(dst, e.Type)
	dst = binary.AppendVarint(dst, int64(e.Phase))
	dst = binary.AppendVarint(dst, int64(e.Task))
	dst = binary.AppendVarint(dst, int64(e.Worker))
	dst = binary.AppendVarint(dst, int64(e.Dur))
	dst = appendString(dst, e.Detail)
	dst = binary.AppendVarint(dst, int64(e.Shard))
	dst = binary.AppendVarint(dst, int64(e.Slack))
	return binary.AppendVarint(dst, int64(e.Deadline))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeJournal parses an AppendJournal payload. It never allocates more
// than a constant factor of len(payload): the entry count is checked
// against the payload length before the entry slice is made, and every
// string is bounds-checked before it is copied. Truncated payloads,
// overrunning strings, unknown flag bits and trailing bytes are errors.
// Type and Detail strings are interned per payload — both come from small
// sets (event names, admission reasons), so a journal of thousands of
// entries holds a handful of distinct strings.
func DecodeJournal(payload []byte) ([]obs.Entry, int64, error) {
	r := journalReader{b: payload}
	evicted := r.varint()
	count := r.uvarint()
	if r.err != nil {
		return nil, 0, r.err
	}
	if evicted < 0 {
		return nil, 0, fmt.Errorf("wire: journal reports %d evicted entries", evicted)
	}
	if count > uint64(len(payload)-r.off)/minEntrySize {
		return nil, 0, fmt.Errorf("wire: journal announces %d entries in %d bytes", count, len(payload)-r.off)
	}
	entries := make([]obs.Entry, count)
	r.intern = make(map[string]string)
	for i := range entries {
		e := &entries[i]
		flags := r.u8()
		if flags&^flagMask != 0 {
			return nil, 0, fmt.Errorf("wire: journal entry %d has unknown flags %#x", i, flags)
		}
		e.Seq = r.varint()
		if flags&flagWall != 0 {
			e.Wall = time.Unix(0, r.varint())
		}
		e.Virtual = simtime.Instant(r.varint())
		e.Type = r.str()
		e.Phase = int(r.varint())
		e.Task = int(r.varint())
		e.Worker = int(r.varint())
		e.Dur = time.Duration(r.varint())
		e.Hit = flags&flagHit != 0
		e.Detail = r.str()
		e.Shard = int(r.varint())
		e.Slack = time.Duration(r.varint())
		e.Deadline = simtime.Instant(r.varint())
		if r.err != nil {
			return nil, 0, fmt.Errorf("wire: journal entry %d: %w", i, r.err)
		}
	}
	if r.off != len(payload) {
		return nil, 0, fmt.Errorf("wire: journal carries %d trailing bytes", len(payload)-r.off)
	}
	return entries, evicted, nil
}

// journalReader walks a Journal payload. The first failure sticks in err
// and turns every later read into a zero-value no-op, so the decoder checks
// once per entry instead of once per field.
type journalReader struct {
	b      []byte
	off    int
	err    error
	intern map[string]string
}

func (r *journalReader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.err = errJournalTruncated
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *journalReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.err = errJournalTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *journalReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = errJournalTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *journalReader) str() string {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return ""
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = fmt.Errorf("wire: journal string of %d bytes overruns the payload", n)
		return ""
	}
	raw := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	if s, ok := r.intern[string(raw)]; ok {
		return s
	}
	s := string(raw)
	r.intern[s] = s
	return s
}
