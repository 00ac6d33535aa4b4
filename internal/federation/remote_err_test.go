package federation

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/federation/wire"
	"rtsads/internal/livecluster"
	"rtsads/internal/metrics"
	"rtsads/internal/obs"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// fakeShard is a listener that speaks just enough of the wire protocol to
// pass the handshake, hello and first-summary exchange, then hands the live
// connection to script — the test's chance to misbehave in a precisely
// scripted way. After script returns, the remaining router frames are
// drained so nothing blocks while the session winds down.
func fakeShard(t *testing.T, script func(c *wire.Conn) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen fake shard: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		c := wire.NewConn(nc)
		deadline := time.Now().Add(10 * time.Second)
		c.SetReadDeadline(deadline)
		c.SetWriteDeadline(deadline)
		if err := c.ReadHandshake(); err != nil {
			return
		}
		if err := c.WriteHandshake(); err != nil {
			return
		}
		typ, _, err := c.ReadFrame()
		if err != nil || typ != wire.TypeHello {
			return
		}
		sum, err := json.Marshal(wire.Summary{Load: livecluster.Summary{Workers: 2, Alive: 2}})
		if err != nil {
			return
		}
		if err := c.WriteFrame(wire.TypeSummary, sum); err != nil {
			return
		}
		if err := script(c); err != nil {
			return
		}
		for {
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, _, err := c.ReadFrame(); err != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// waitForSubmit reads router frames until one Submit arrives and returns
// the batch's task IDs.
func waitForSubmit(c *wire.Conn) ([]task.ID, error) {
	for {
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, body, err := c.ReadFrame()
		if err != nil {
			return nil, err
		}
		if typ != wire.TypeSubmit {
			continue
		}
		ts, err := wire.DecodeSubmit(body, func() *task.Task { return new(task.Task) })
		if err != nil {
			return nil, err
		}
		ids := make([]task.ID, len(ts))
		for i, t := range ts {
			ids[i] = t.ID
		}
		return ids, nil
	}
}

// settleAllThenClose plays a shard that settles every task it is fed as a
// deadline hit, checkpointing and summarising after each batch. On seal it
// sends its Result, reads one router heartbeat to know they are flowing,
// leaves the next one unread and closes: the unread heartbeat makes the
// close a reset, and later heartbeat writes fail.
func settleAllThenClose(c *wire.Conn) error {
	n, seq := int64(0), uint64(0)
	for {
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		typ, body, err := c.ReadFrame()
		if err != nil {
			return err
		}
		switch typ {
		case wire.TypeSubmit:
			ts, err := wire.DecodeSubmit(body, func() *task.Task { return new(task.Task) })
			if err != nil {
				return err
			}
			seq++
			ck := wire.Checkpoint{Seq: seq}
			for _, t := range ts {
				ck.Settled = append(ck.Settled, int32(t.ID))
			}
			n += int64(len(ts))
			counters := map[string]int64{obs.MetricHits: n, obs.MetricAdmitted: n}
			ck.Counters = counters
			if err := writeJSON(c, wire.TypeCheckpoint, ck); err != nil {
				return err
			}
			sum := wire.Summary{Load: livecluster.Summary{Workers: 2, Alive: 2}, Counters: counters}
			if err := writeJSON(c, wire.TypeSummary, sum); err != nil {
				return err
			}
		case wire.TypeSeal:
			res := metrics.RunResult{Workers: 2, Total: int(n), Hits: int(n), Admitted: int(n)}
			if err := writeJSON(c, wire.TypeResult, res); err != nil {
				return err
			}
			for {
				c.SetReadDeadline(time.Now().Add(10 * time.Second))
				typ, _, err := c.ReadFrame()
				if err != nil {
					return err
				}
				if typ == wire.TypeHeartbeat {
					break
				}
			}
			time.Sleep(150 * time.Millisecond) // > one heartbeat period
			c.Close()
			return errors.New("closed after the result")
		}
	}
}

func writeJSON(c *wire.Conn, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return c.WriteFrame(typ, payload)
}

// TestFederationLiveTCPSessionDeathPaths drives every way a shard session
// can die from the frame stream — a shard-reported error frame, undecodable
// journal and result payloads, an unknown frame type, and a connection cut
// in the middle of a reject/verdict exchange. Each death must leave the
// remote handle carrying a descriptive error while the run itself survives:
// the dead shard's tasks are salvaged or charged lost and every Reconcile
// identity still holds.
func TestFederationLiveTCPSessionDeathPaths(t *testing.T) {
	cases := []struct {
		name string
		// script misbehaves on the live session after letting some work
		// arrive; wantErr is a substring of the session error it must cause,
		// empty when the exact failure point is timing-dependent.
		script  func(c *wire.Conn) error
		wantErr string
	}{
		{
			name: "error-frame",
			script: func(c *wire.Conn) error {
				if _, err := waitForSubmit(c); err != nil {
					return err
				}
				return c.WriteFrame(wire.TypeError, []byte("scheduler wedged"))
			},
			wantErr: "shard 1 reported: scheduler wedged",
		},
		{
			name: "bad-journal",
			script: func(c *wire.Conn) error {
				if _, err := waitForSubmit(c); err != nil {
					return err
				}
				return c.WriteFrame(wire.TypeJournal, []byte("{not json"))
			},
			wantErr: "shard 1 journal:",
		},
		{
			name: "bad-result",
			script: func(c *wire.Conn) error {
				if _, err := waitForSubmit(c); err != nil {
					return err
				}
				return c.WriteFrame(wire.TypeResult, []byte("{not json"))
			},
			wantErr: "shard 1 result:",
		},
		{
			name: "unknown-frame",
			script: func(c *wire.Conn) error {
				if _, err := waitForSubmit(c); err != nil {
					return err
				}
				return c.WriteFrame(99, []byte("mystery"))
			},
			wantErr: "shard 1 sent unknown frame type 99",
		},
		{
			// The shard bounces a batch of genuinely-submitted tasks and the
			// connection dies before the verdict round-trip completes:
			// depending on which side of the exchange notices first this
			// surfaces as a verdict write failure or a connection loss, so
			// only death itself is asserted — with the books still exactly
			// balanced whichever of the batch the router had migrated.
			name: "reject-then-close",
			script: func(c *wire.Conn) error {
				var ids []task.ID
				for len(ids) < 3 {
					more, err := waitForSubmit(c)
					if err != nil {
						return err
					}
					ids = append(ids, more...)
				}
				rej := wire.Reject{Seq: 1, NowNano: 0}
				for _, id := range ids[:3] {
					rej.Entries = append(rej.Entries, wire.RejectEntry{ID: int32(id), Reason: admission.QueueFull})
				}
				payload, err := wire.AppendReject(nil, rej)
				if err != nil {
					return err
				}
				if err := c.WriteFrame(wire.TypeReject, payload); err != nil {
					return err
				}
				return c.Close()
			},
			wantErr: "",
		},
		{
			// The shard delivers its Result, then closes without a Journal
			// or Bye while router heartbeats are in flight, so the socket
			// resets under the heartbeat writes. The Result settles every
			// task the shard was fed: folding the session's checkpoint
			// books on top of it would count the shard twice, which
			// Reconcile's Σ-totals identity catches.
			name:    "result-then-close",
			script:  settleAllThenClose,
			wantErr: "shard 1 connection lost",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := workload.DefaultParams(4)
			p.NumTransactions = 96
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			farm := newShardFarm(t, 1)
			addrs := []string{farm.addrs[0], fakeShard(t, tc.script)}
			f, err := New(Config{
				Workload:   w,
				Topology:   Topology{Shards: 2, WorkersPerShard: 2},
				Placement:  AffinityFirst,
				Migrate:    true,
				Scale:      50,
				Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
				SlackGuard: 25 * time.Microsecond,
				ShardAddrs: addrs,
			})
			if err != nil {
				t.Fatalf("new: %v", err)
			}
			res, err := f.Run()
			if err != nil {
				t.Fatalf("run must survive a misbehaving shard, got: %v", err)
			}
			if err := res.Reconcile(); err != nil {
				t.Fatalf("reconcile after %s: %v", tc.name, err)
			}
			if res.Routed != len(w.Tasks) {
				t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
			}
			rs, ok := f.handles[1].(*remoteShard)
			if !ok {
				t.Fatalf("shard 1 handle is %T, want *remoteShard", f.handles[1])
			}
			sessErr := rs.Err()
			if sessErr == nil {
				t.Fatalf("shard 1 session survived %s; want a session death error", tc.name)
			}
			if tc.wantErr != "" && !strings.Contains(sessErr.Error(), tc.wantErr) {
				t.Errorf("session error = %q, want substring %q", sessErr, tc.wantErr)
			}
			t.Logf("%s: session error %q; shard 1 books total=%d lost=%d; salvaged=%d salvage-lost=%d",
				tc.name, sessErr, res.Shards[1].Total, res.Shards[1].LostToFailure, res.Salvaged, res.SalvageLost)
		})
	}
}

// TestServeShardRejectsBadVerdict plays a router against a real shard
// server: it floods the shard past its queue cap, waits for the Reject
// the flood provokes, and answers with a Verdict the shard cannot match —
// a wrong entry count, or a sequence it never sent. Either must end the
// session with an error, not resolve the batch.
func TestServeShardRejectsBadVerdict(t *testing.T) {
	for _, tc := range []struct {
		name    string
		verdict func(r wire.Reject) wire.Verdict
		wantErr string
	}{
		{"count-mismatch", func(r wire.Reject) wire.Verdict {
			return wire.Verdict{Seq: r.Seq, Accepted: make([]bool, len(r.Entries)+1)}
		}, "verdicts for"},
		{"never-sent", func(r wire.Reject) wire.Verdict {
			return wire.Verdict{Seq: r.Seq + 5, Accepted: make([]bool, len(r.Entries))}
		}, "last sent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := workload.DefaultParams(4)
			p.NumTransactions = 64
			w, err := workload.Generate(p)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					served <- err
					return
				}
				served <- ServeShard(nc, ServeShardOptions{})
			}()

			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer nc.Close()
			c := wire.NewConn(nc)
			nc.SetDeadline(time.Now().Add(10 * time.Second))
			if err := c.WriteHandshake(); err != nil {
				t.Fatalf("handshake: %v", err)
			}
			if err := c.ReadHandshake(); err != nil {
				t.Fatalf("handshake: %v", err)
			}
			hello, err := json.Marshal(wire.Hello{
				Params: p, Shards: 1, WorkersPerShard: 4, Algorithm: "RT-SADS",
				Scale: 50, StartUnixNano: time.Now().UnixNano(),
				TimeoutNano: (10 * time.Second).Nanoseconds(),
				Admission:   admission.Config{Policy: admission.Reject, QueueCap: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.WriteFrame(wire.TypeHello, hello); err != nil {
				t.Fatalf("hello: %v", err)
			}
			if err := c.WriteFrame(wire.TypeSubmit, wire.AppendSubmit(nil, w.Tasks)); err != nil {
				t.Fatalf("submit: %v", err)
			}
			var rej wire.Reject
			for {
				typ, body, err := c.ReadFrame()
				if err != nil {
					t.Fatalf("no Reject before %v", err)
				}
				if typ == wire.TypeReject {
					if err := wire.DecodeReject(body, &rej); err != nil {
						t.Fatalf("decode reject: %v", err)
					}
					break
				}
			}
			if err := c.WriteFrame(wire.TypeVerdict, wire.AppendVerdict(nil, tc.verdict(rej))); err != nil {
				t.Fatalf("verdict: %v", err)
			}
			// Drain until the shard hangs up, so its writes never block.
			for {
				if _, _, err := c.ReadFrame(); err != nil {
					break
				}
			}
			if err := <-served; err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ServeShard returned %v, want an error containing %q", err, tc.wantErr)
			}
		})
	}
}
