package wire

import (
	"encoding/binary"
	"fmt"

	"rtsads/internal/admission"
)

// Reject is the shard→router payload for one host-loop pass's admission
// rejections: the shard asks the router to migrate each entry, in order,
// and blocks until the Verdict with the same Seq answers every one.
//
// Layout: [4-byte Seq][8-byte NowNano][4-byte count N][N × (4-byte task
// ID, 1-byte reason code)], big-endian.
type Reject struct {
	// Seq numbers the session's Reject frames from 1. A shard has at most
	// one Reject outstanding, so Seq only tells a late Verdict (one the
	// shard stopped waiting for) from the one it is waiting for.
	Seq uint32
	// NowNano is the shard's virtual clock at the pass, so the router's
	// feasibility re-check uses the same instant the shard saw.
	NowNano int64
	Entries []RejectEntry
}

// RejectEntry is one rejected task and why the shard turned it away.
type RejectEntry struct {
	ID     int32
	Reason admission.Reason
}

// Verdict answers a Reject entry by entry: Accepted[i] means the router
// re-placed Reject.Entries[i] on a sibling (the shard must not shed it).
//
// Layout: [4-byte Seq][4-byte count N][N × 1-byte flag (0 or 1)].
type Verdict struct {
	Seq      uint32
	Accepted []bool
}

const (
	rejectHeader     = 16
	rejectEntrySize  = 5
	verdictHeader    = 8
	verdictEntrySize = 1
)

// reasonCodes maps each one-byte wire code to its admission reason; code 0
// is unused so a zeroed entry never decodes.
var reasonCodes = [...]admission.Reason{
	1: admission.Hopeless,
	2: admission.QueueFull,
	3: admission.Infeasible,
	4: admission.ShardDown,
	5: admission.ShuttingDown,
}

func reasonCode(r admission.Reason) (byte, bool) {
	for c, name := range reasonCodes {
		if c > 0 && name == r {
			return byte(c), true
		}
	}
	return 0, false
}

// AppendReject appends r's payload to dst. It fails on a reason with no
// wire code.
func AppendReject(dst []byte, r Reject) ([]byte, error) {
	var h [rejectHeader]byte
	binary.BigEndian.PutUint32(h[0:4], r.Seq)
	binary.BigEndian.PutUint64(h[4:12], uint64(r.NowNano))
	binary.BigEndian.PutUint32(h[12:16], uint32(len(r.Entries)))
	dst = append(dst, h[:]...)
	for _, e := range r.Entries {
		code, ok := reasonCode(e.Reason)
		if !ok {
			return dst, fmt.Errorf("wire: reject reason %q has no wire code", e.Reason)
		}
		var b [rejectEntrySize]byte
		binary.BigEndian.PutUint32(b[0:4], uint32(e.ID))
		b[4] = code
		dst = append(dst, b[:]...)
	}
	return dst, nil
}

// DecodeReject parses an AppendReject payload into r, reusing r.Entries'
// storage. The count is checked against the payload length before
// anything is allocated.
func DecodeReject(payload []byte, r *Reject) error {
	if len(payload) < rejectHeader {
		return fmt.Errorf("wire: reject payload too short (%d bytes)", len(payload))
	}
	n := binary.BigEndian.Uint32(payload[12:16])
	body := payload[rejectHeader:]
	if uint64(len(body)) != uint64(n)*rejectEntrySize {
		return fmt.Errorf("wire: reject carries %d bytes for %d entries (want %d)",
			len(body), n, uint64(n)*rejectEntrySize)
	}
	r.Seq = binary.BigEndian.Uint32(payload[0:4])
	r.NowNano = int64(binary.BigEndian.Uint64(payload[4:12]))
	if cap(r.Entries) < int(n) {
		r.Entries = make([]RejectEntry, 0, n)
	}
	r.Entries = r.Entries[:0]
	for i := 0; i < int(n); i++ {
		e := body[i*rejectEntrySize:]
		code := int(e[4])
		if code == 0 || code >= len(reasonCodes) {
			return fmt.Errorf("wire: reject entry %d has unknown reason code %d", i, code)
		}
		r.Entries = append(r.Entries, RejectEntry{
			ID:     int32(binary.BigEndian.Uint32(e[0:4])),
			Reason: reasonCodes[code],
		})
	}
	return nil
}

// AppendVerdict appends v's payload to dst.
func AppendVerdict(dst []byte, v Verdict) []byte {
	var h [verdictHeader]byte
	binary.BigEndian.PutUint32(h[0:4], v.Seq)
	binary.BigEndian.PutUint32(h[4:8], uint32(len(v.Accepted)))
	dst = append(dst, h[:]...)
	for _, ok := range v.Accepted {
		var b byte
		if ok {
			b = 1
		}
		dst = append(dst, b)
	}
	return dst
}

// DecodeVerdict parses an AppendVerdict payload into v, reusing
// v.Accepted's storage. The count is checked against the payload length
// before anything is allocated, and a flag other than 0 or 1 is an error.
func DecodeVerdict(payload []byte, v *Verdict) error {
	if len(payload) < verdictHeader {
		return fmt.Errorf("wire: verdict payload too short (%d bytes)", len(payload))
	}
	n := binary.BigEndian.Uint32(payload[4:8])
	body := payload[verdictHeader:]
	if uint64(len(body)) != uint64(n)*verdictEntrySize {
		return fmt.Errorf("wire: verdict carries %d bytes for %d entries (want %d)",
			len(body), n, uint64(n)*verdictEntrySize)
	}
	v.Seq = binary.BigEndian.Uint32(payload[0:4])
	if cap(v.Accepted) < int(n) {
		v.Accepted = make([]bool, 0, n)
	}
	v.Accepted = v.Accepted[:0]
	for i, b := range body {
		if b > 1 {
			return fmt.Errorf("wire: verdict entry %d has flag %d, want 0 or 1", i, b)
		}
		v.Accepted = append(v.Accepted, b == 1)
	}
	return nil
}
