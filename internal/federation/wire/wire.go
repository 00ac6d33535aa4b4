// Package wire is the federation's shard transport: a versioned,
// length-prefixed binary protocol that lets scheduler shards run as
// separate processes behind the router. A session starts with a fixed
// preamble (magic + version) so incompatible peers fail fast, then
// exchanges typed frames:
//
//	[4-byte big-endian payload length][1-byte type][payload]
//
// Framing rule: frames that grow with the run's task count are binary —
// Submit (a fixed-width 48-byte record per task), Reject and Verdict (a
// count and a fixed-width entry per bounced task: one round trip per
// shard host-loop pass, see AppendReject) and Journal (a varint-packed
// record per lifecycle entry, see AppendJournal) — with no reflection.
// Every binary decoder bounds an announced count by the payload length
// before it allocates. Fixed-size control frames (Hello, Summary,
// Checkpoint, Result) are JSON inside their frame.
//
// Versioning rules: the preamble's version byte names the frame grammar.
// A peer MUST reject a version it does not speak — there is no
// negotiation. Adding a frame type or a JSON field is a compatible change
// within a version (unknown JSON fields are ignored; unknown frame types
// are an error, so new frame types require a version bump). Changing the
// task record layout or any existing frame's payload encoding requires a
// version bump.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"rtsads/internal/affinity"
	"rtsads/internal/simtime"
	"rtsads/internal/task"
)

// Magic opens every session; Version names the frame grammar.
// Version history: 1 = initial shard protocol; 2 adds the Checkpoint
// frame and the Hello rejoin fields (Rejoin/Epoch/ResumeSeq); 3 = binary
// Journal frame; 4 = batched Reject/Verdict (a sequence number, a count
// and N entries with one-byte reason codes, one exchange per shard
// host-loop pass instead of one per bounced task).
const (
	Magic   = "RTFW"
	Version = 4
)

// Frame types. Submit/Verdict/Seal/Heartbeat flow router→shard;
// Reject/Summary/Checkpoint/Result/Journal/Heartbeat flow shard→router;
// Bye and Error may flow either way.
const (
	TypeHello      byte = 1  // router→shard: JSON Hello
	TypeSubmit     byte = 2  // router→shard: binary task batch
	TypeReject     byte = 3  // shard→router: one pass's admission rejections
	TypeVerdict    byte = 4  // router→shard: migration verdicts for a Reject
	TypeSummary    byte = 5  // shard→router: JSON Summary (doubles as heartbeat)
	TypeSeal       byte = 6  // router→shard: close the shard's feed
	TypeResult     byte = 7  // shard→router: JSON final RunResult
	TypeJournal    byte = 8  // shard→router: binary journal (AppendJournal)
	TypeHeartbeat  byte = 9  // either: liveness only
	TypeBye        byte = 10 // either: clean close
	TypeError      byte = 11 // either: fatal error string, then close
	TypeCheckpoint byte = 12 // shard→router: JSON Checkpoint (v2+)
)

// MaxFrame bounds a frame payload; a peer announcing more is corrupt or
// hostile and the connection is dropped.
const MaxFrame = 64 << 20

// TaskRecordSize is the fixed wire width of one task.
const TaskRecordSize = 48

// Conn frames one net.Conn. Reads and writes are independently buffered;
// neither direction is safe for concurrent use — callers serialize each
// side (the federation's remote handle and shard server each guard writes
// with a mutex and read from a single goroutine).
type Conn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// rhdr/whdr are per-direction scratch for the 5-byte frame header —
	// separate so one reader and one writer goroutine can share the Conn.
	rhdr [5]byte
	whdr [5]byte
	// buf is reusable payload scratch for reads.
	buf []byte
}

// NewConn wraps a connection. It performs no I/O.
func NewConn(c net.Conn) *Conn {
	return &Conn{c: c, br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10)}
}

// SetDeadline bounds the next read and write.
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.c.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.c.SetWriteDeadline(t) }

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.c.Close() }

// WriteHandshake sends the preamble. The dialling side sends it first;
// the accepting side answers with its own, so both directions verify.
func (c *Conn) WriteHandshake() error {
	if _, err := c.bw.WriteString(Magic); err != nil {
		return err
	}
	if err := c.bw.WriteByte(Version); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadHandshake validates the peer's preamble.
func (c *Conn) ReadHandshake() error {
	var pre [len(Magic) + 1]byte
	if _, err := io.ReadFull(c.br, pre[:]); err != nil {
		return fmt.Errorf("wire: read preamble: %w", err)
	}
	if string(pre[:len(Magic)]) != Magic {
		return fmt.Errorf("wire: bad magic %q", pre[:len(Magic)])
	}
	if v := pre[len(Magic)]; v != Version {
		return fmt.Errorf("wire: peer speaks version %d, want %d", v, Version)
	}
	return nil
}

// WriteFrame sends one frame and flushes.
func (c *Conn) WriteFrame(typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds max %d", len(payload), MaxFrame)
	}
	binary.BigEndian.PutUint32(c.whdr[:4], uint32(len(payload)))
	c.whdr[4] = typ
	if _, err := c.bw.Write(c.whdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// ReadFrame's buffer grows only as payload bytes arrive: to at most
// readChunk before any has, then to at most readGrowth times what has
// arrived, so a header announcing MaxFrame costs one chunk until the peer
// really sends the bytes, while a frame up to readChunk — and a larger one
// in few steps — is read without copying.
const (
	readChunk  = 256 << 10
	readGrowth = 8
)

// ReadFrame reads one frame. The payload slice is the connection's scratch
// buffer: it is only valid until the next ReadFrame. The buffer is kept
// across frames.
func (c *Conn) ReadFrame() (byte, []byte, error) {
	if _, err := io.ReadFull(c.br, c.rhdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(c.rhdr[:4]))
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds max %d", n, MaxFrame)
	}
	buf := c.buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, max(readChunk, readGrowth*len(buf))))
			copy(grown, buf)
			buf = grown
		}
		end := min(n, cap(buf))
		if _, err := io.ReadFull(c.br, buf[len(buf):end]); err != nil {
			c.buf = buf[:0]
			return 0, nil, fmt.Errorf("wire: read payload: %w", err)
		}
		buf = buf[:end]
	}
	c.buf = buf
	return c.rhdr[4], buf, nil
}

// AppendTask appends t's fixed-width record to dst.
func AppendTask(dst []byte, t *task.Task) []byte {
	var rec [TaskRecordSize]byte
	binary.BigEndian.PutUint32(rec[0:4], uint32(t.ID))
	binary.BigEndian.PutUint32(rec[4:8], uint32(t.Payload))
	binary.BigEndian.PutUint64(rec[8:16], uint64(t.Arrival))
	binary.BigEndian.PutUint64(rec[16:24], uint64(t.Proc))
	binary.BigEndian.PutUint64(rec[24:32], uint64(t.Deadline))
	binary.BigEndian.PutUint64(rec[32:40], uint64(t.Affinity))
	binary.BigEndian.PutUint64(rec[40:48], uint64(t.Actual))
	return append(dst, rec[:]...)
}

// DecodeTask fills t from one fixed-width record.
func DecodeTask(rec []byte, t *task.Task) {
	_ = rec[TaskRecordSize-1]
	t.ID = task.ID(binary.BigEndian.Uint32(rec[0:4]))
	t.Payload = int32(binary.BigEndian.Uint32(rec[4:8]))
	t.Arrival = simtime.Instant(binary.BigEndian.Uint64(rec[8:16]))
	t.Proc = time.Duration(binary.BigEndian.Uint64(rec[16:24]))
	t.Deadline = simtime.Instant(binary.BigEndian.Uint64(rec[24:32]))
	t.Affinity = affinity.Set(binary.BigEndian.Uint64(rec[32:40]))
	t.Actual = time.Duration(binary.BigEndian.Uint64(rec[40:48]))
}

// AppendSubmit appends a Submit frame payload (count + records) to dst —
// the router reuses one buffer across batches, so the steady state
// allocates nothing.
func AppendSubmit(dst []byte, ts []*task.Task) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(ts)))
	dst = append(dst, n[:]...)
	for _, t := range ts {
		dst = AppendTask(dst, t)
	}
	return dst
}

// DecodeSubmit decodes a Submit payload. alloc provides task storage (a
// fresh allocation or an arena slot per task). Every record must pass
// task.Validate; a bad one fails the whole frame with an error naming the
// record and the field.
func DecodeSubmit(payload []byte, alloc func() *task.Task) ([]*task.Task, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("wire: submit payload too short (%d bytes)", len(payload))
	}
	n := int(binary.BigEndian.Uint32(payload[:4]))
	body := payload[4:]
	if len(body) != n*TaskRecordSize {
		return nil, fmt.Errorf("wire: submit carries %d bytes for %d tasks (want %d)",
			len(body), n, n*TaskRecordSize)
	}
	ts := make([]*task.Task, n)
	for i := 0; i < n; i++ {
		t := alloc()
		DecodeTask(body[i*TaskRecordSize:], t)
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("wire: submit record %d: %w", i, err)
		}
		ts[i] = t
	}
	return ts, nil
}
