package federation

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"rtsads/internal/admission"
	"rtsads/internal/federation/wire"
	"rtsads/internal/obs"
	"rtsads/internal/workload"
)

// shardFarm runs loopback shard servers — the test-local stand-in for N
// `rtcluster -shard-listen` processes. Kill severs a shard's live session
// at the TCP layer, which is indistinguishable from the process dying as
// far as the router is concerned.
type shardFarm struct {
	addrs []string

	mu    sync.Mutex
	conns []net.Conn // latest accepted connection per shard
	wg    sync.WaitGroup
}

// newShardFarm starts n shard servers. When observers are given, shard i
// serves with observers[i] — one observer for all its sessions, so only
// runs without a rejoin should pass them.
func newShardFarm(t *testing.T, n int, observers ...*obs.Observer) *shardFarm {
	t.Helper()
	farm := &shardFarm{addrs: make([]string, n), conns: make([]net.Conn, n)}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen shard %d: %v", i, err)
		}
		t.Cleanup(func() { ln.Close() })
		farm.addrs[i] = ln.Addr().String()
		farm.wg.Add(1)
		go func(i int) {
			defer farm.wg.Done()
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				farm.mu.Lock()
				farm.conns[i] = c
				farm.mu.Unlock()
				// Serve each session in its own goroutine: a rejoin dial after
				// a kill models a restarted shard process, whose listener is
				// not gated on the dead process finishing its shutdown.
				var opt ServeShardOptions
				if observers != nil {
					opt.Obs = observers[i]
				}
				farm.wg.Add(1)
				go func() {
					defer farm.wg.Done()
					_ = ServeShard(c, opt)
				}()
			}
		}(i)
	}
	return farm
}

// kill severs shard i's current session mid-run.
func (farm *shardFarm) kill(i int) {
	farm.mu.Lock()
	c := farm.conns[i]
	farm.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// TestFederationLiveTCPTwoShards is the out-of-process differential of
// TestFederationLiveTwoShards: the same workload routed to two shard
// servers over the wire protocol must settle every task, reconcile the
// federation books, ship each shard's journal to the router losslessly,
// and keep the merged lifecycle journal span-complete.
func TestFederationLiveTCPTwoShards(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 48
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	observers := []*obs.Observer{obs.New(4096), obs.New(4096)}
	farm := newShardFarm(t, 2, observers...)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      200,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
		ShardAddrs: farm.addrs,
		JournalCap: 4096,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	if res.Routed != len(w.Tasks) {
		t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
	}
	if got := res.Combined().ScheduledMissed; got != 0 {
		t.Errorf("%d scheduled tasks missed their deadlines over TCP; want 0", got)
	}
	// Remote shard counters arrive via Summary frames; the final frame
	// lands before the result, so the mirror must be exact.
	for i, s := range res.Shards {
		snap := f.ShardCounters(i)
		for name, want := range map[string]int{
			obs.MetricHits:     s.Hits,
			obs.MetricPurged:   s.Purged,
			obs.MetricMissed:   s.ScheduledMissed,
			obs.MetricLost:     s.LostToFailure,
			obs.MetricShed:     s.Shed,
			obs.MetricAdmitted: s.Admitted,
			obs.MetricBounced:  s.Bounced,
		} {
			if got := snap[name]; got != int64(want) {
				t.Errorf("shard %d wire counters %s = %d, result says %d", i, name, got, want)
			}
		}
	}
	// Each journal the router received is the shard's own, entry by entry:
	// the Journal frame loses nothing, and no session death cut it off. A
	// shard records nothing after it exports, so its journal is final.
	for i, o := range observers {
		want, wantEvicted := o.Journal().Export()
		got, gotEvicted := f.handles[i].(*remoteShard).Journal()
		if gotEvicted != wantEvicted {
			t.Errorf("shard %d: router got evicted=%d, shard exported %d", i, gotEvicted, wantEvicted)
		}
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("shard %d: router got %d journal entries, shard exported %d", i, len(got), len(want))
		}
		for k := range want {
			g, e := got[k], want[k]
			if !g.Wall.Equal(e.Wall) {
				t.Fatalf("shard %d entry %d: Wall %v, shard has %v", i, k, g.Wall, e.Wall)
			}
			g.Wall, e.Wall = time.Time{}, time.Time{}
			if g != e {
				t.Fatalf("shard %d entry %d: router got %+v, shard has %+v", i, k, g, e)
			}
		}
	}
	// The shipped journals merge with the router's into a span-complete
	// lifecycle stream, exactly as in process.
	entries, evicted := f.MergedEntries()
	if evicted != 0 {
		t.Fatalf("journal evicted %d entries under cap 4096", evicted)
	}
	routes := 0
	for i := range entries {
		if entries[i].Type == "route" {
			routes++
		}
	}
	if routes != res.Routed {
		t.Errorf("merged journal records %d route spans, router says %d", routes, res.Routed)
	}
	for _, msg := range obs.SpanViolations(entries) {
		t.Errorf("span completeness: %s", msg)
	}
	t.Logf("live TCP 2-shard: %s", res.Combined())
}

// TestFederationLiveTCPShardKill severs one shard's connection mid-run and
// demands the run still complete with balanced books: the dead shard's
// synthesized result charges everything it was fed to LostToFailure minus
// what the router migrated away, and Reconcile's identities hold exactly.
func TestFederationLiveTCPShardKill(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 160
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	farm := newShardFarm(t, 2)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      50,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
		ShardAddrs: farm.addrs,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.Run()
		done <- outcome{res, err}
	}()
	time.Sleep(100 * time.Millisecond)
	farm.kill(1)
	out := <-done
	if out.err != nil {
		t.Fatalf("run with killed shard: %v", out.err)
	}
	res := out.res
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile after kill: %v", err)
	}
	if res.Routed != len(w.Tasks) {
		t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
	}
	dead := res.Shards[1]
	if dead.LostToFailure == 0 {
		t.Logf("note: shard 1 settled everything before the kill landed (lost=0); books still balance")
	}
	t.Logf("killed shard books: total=%d lost=%d hits=%d bounced=%d; federation %s",
		dead.Total, dead.LostToFailure, dead.Hits, dead.Bounced, res.Combined())
}

// TestFederationLiveTCPShardRejoin kills shard 1's session mid-run with
// rejoin enabled: the router must salvage the dead session's outstanding
// tasks, redial the shard (the farm's accept loop serves a fresh session),
// complete the rejoin handshake, and finish the run with exactly balanced
// books spanning kill → salvage → rejoin.
func TestFederationLiveTCPShardRejoin(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 240
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	farm := newShardFarm(t, 2)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      50,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
		ShardAddrs: farm.addrs,
		JournalCap: 8192,
		Recovery:   Recovery{Rejoin: true},
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.Run()
		done <- outcome{res, err}
	}()
	time.Sleep(100 * time.Millisecond)
	farm.kill(1)
	out := <-done
	if out.err != nil {
		t.Fatalf("run with killed+rejoined shard: %v", out.err)
	}
	res := out.res
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile across kill→salvage→rejoin: %v", err)
	}
	if res.Routed != len(w.Tasks) {
		t.Errorf("routed %d of %d tasks", res.Routed, len(w.Tasks))
	}
	if res.Rejoins < 1 {
		t.Errorf("rejoins = %d, want at least 1 after the kill", res.Rejoins)
	}
	rs, ok := f.handles[1].(*remoteShard)
	if !ok {
		t.Fatalf("shard 1 handle is %T, want *remoteShard", f.handles[1])
	}
	if got := rs.Rejoins(); got < 1 {
		t.Errorf("shard 1 rejoined %d times, want at least 1", got)
	}
	if snap := f.Registry().Snapshot(); snap[MetricRejoins] != int64(res.Rejoins) {
		t.Errorf("registry %s = %d, result says %d", MetricRejoins, snap[MetricRejoins], res.Rejoins)
	}
	t.Logf("rejoin run: rejoins=%d salvaged=%d salvage-lost=%d shard1 books: total=%d hits=%d lost=%d bounced=%d",
		res.Rejoins, res.Salvaged, res.SalvageLost,
		res.Shards[1].Total, res.Shards[1].Hits, res.Shards[1].LostToFailure, res.Shards[1].Bounced)
}

// TestFederationLiveTCPShardFlap kills shard 1 repeatedly with a tight
// flap threshold: the shard must rejoin each time, cross the threshold,
// land on probation (quarantined from placement — the quarantine counter
// must tick), and the run must still finish with balanced books and no
// migration storm (every migration remains a deliberate §4.3-gated move).
func TestFederationLiveTCPShardFlap(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 240
	// Poisson arrivals at a 40µs mean stretch the routing phase over ~2s of
	// wall clock at Scale 200, so the kills — and the probation windows the
	// rejoins open — land while placement decisions are still being made.
	// Bursty arrivals would route everything in the first few milliseconds
	// and no placement could ever observe the quarantine.
	p.Arrival = workload.Poisson
	p.MeanInterArrival = 40 * time.Microsecond
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	farm := newShardFarm(t, 2)
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      200,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 8},
		SlackGuard: 25 * time.Microsecond,
		ShardAddrs: farm.addrs,
		Recovery: Recovery{
			Rejoin:        true,
			MaxRejoins:    8,
			FlapThreshold: 2,
			FlapWindow:    10 * time.Second,
			Probation:     300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := f.Run()
		done <- outcome{res, err}
	}()
	for k := 0; k < 3; k++ {
		time.Sleep(120 * time.Millisecond)
		farm.kill(1)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("run with flapping shard: %v", out.err)
	}
	res := out.res
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile with flapping shard: %v", err)
	}
	if res.Rejoins < 2 {
		t.Errorf("rejoins = %d, want at least 2 from three kills", res.Rejoins)
	}
	snap := f.Registry().Snapshot()
	if snap[MetricQuarantines] < 1 {
		t.Errorf("quarantines = %d, want at least 1: the flapping shard never hit probation", snap[MetricQuarantines])
	}
	// No migration storm: a flapping shard must not bounce the same tasks
	// around indefinitely. Every task migrates at most Shards-1 times (the
	// tried sets), so migrations are bounded by the workload size here.
	if res.Migrated > 2*len(w.Tasks) {
		t.Errorf("migrated %d times for %d tasks: migration storm", res.Migrated, len(w.Tasks))
	}
	t.Logf("flap run: rejoins=%d quarantines=%d salvaged=%d migrated=%d",
		res.Rejoins, snap[MetricQuarantines], res.Salvaged, res.Migrated)
}

// frameTap watches one shard session's byte streams from the shard side
// and records the entry count of every Reject frame the shard writes and
// every Verdict frame it reads, in order.
type frameTap struct {
	net.Conn
	mu       sync.Mutex
	out, in  frameScanner
	rejects  []int
	verdicts []int
}

func (c *frameTap) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.feed(p, func(typ byte, payload []byte) {
		if typ == wire.TypeReject {
			var r wire.Reject
			if err := wire.DecodeReject(payload, &r); err == nil {
				c.rejects = append(c.rejects, len(r.Entries))
			} else {
				c.rejects = append(c.rejects, -1)
			}
		}
	})
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *frameTap) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.in.feed(p[:n], func(typ byte, payload []byte) {
		if typ == wire.TypeVerdict {
			var v wire.Verdict
			if err := wire.DecodeVerdict(payload, &v); err == nil {
				c.verdicts = append(c.verdicts, len(v.Accepted))
			} else {
				c.verdicts = append(c.verdicts, -1)
			}
		}
	})
	c.mu.Unlock()
	return n, err
}

// frameScanner splits one direction of a session — the 5-byte preamble,
// then [4-byte length][type][payload] frames — as bytes go by.
type frameScanner struct {
	buf      []byte
	preamble bool
}

func (s *frameScanner) feed(p []byte, frame func(typ byte, payload []byte)) {
	s.buf = append(s.buf, p...)
	if !s.preamble {
		if len(s.buf) < len(wire.Magic)+1 {
			return
		}
		s.buf, s.preamble = s.buf[len(wire.Magic)+1:], true
	}
	for len(s.buf) >= 5 {
		n := int(binary.BigEndian.Uint32(s.buf[:4]))
		if len(s.buf) < 5+n {
			return
		}
		frame(s.buf[4], s.buf[5:5+n])
		s.buf = s.buf[5+n:]
	}
}

// TestFederationLiveTCPBatchedBounces runs a bursty overload through two
// shard servers whose sessions are tapped at the frame level: a host-loop
// pass that rejects several tasks must offer them in one Reject frame, so
// Reject frames number fewer than the tasks they bounce, and every Verdict
// must answer its Reject entry for entry.
func TestFederationLiveTCPBatchedBounces(t *testing.T) {
	p := workload.DefaultParams(4)
	p.NumTransactions = 160
	w, err := workload.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	taps := make([]*frameTap, 2)
	addrs := make([]string, 2)
	var wg sync.WaitGroup
	for i := range taps {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen shard %d: %v", i, err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := ln.Accept()
			if err != nil {
				return
			}
			taps[i] = &frameTap{Conn: c}
			_ = ServeShard(taps[i], ServeShardOptions{})
		}(i)
	}
	f, err := New(Config{
		Workload:   w,
		Topology:   Topology{Shards: 2, WorkersPerShard: 2},
		Placement:  AffinityFirst,
		Migrate:    true,
		Scale:      200,
		Admission:  admission.Config{Policy: admission.Reject, QueueCap: 4},
		SlackGuard: 25 * time.Microsecond,
		ShardAddrs: addrs,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	wg.Wait()
	if err := res.Reconcile(); err != nil {
		t.Fatalf("reconcile: %v", err)
	}
	frames, entries := 0, 0
	for i, tap := range taps {
		tap.mu.Lock()
		rejects, verdicts := tap.rejects, tap.verdicts
		tap.mu.Unlock()
		if len(verdicts) != len(rejects) {
			t.Errorf("shard %d: %d Verdict frames for %d Reject frames", i, len(verdicts), len(rejects))
		}
		for k := range rejects {
			if rejects[k] <= 0 {
				t.Errorf("shard %d: Reject frame %d carries %d entries", i, k, rejects[k])
			}
			if k < len(verdicts) && verdicts[k] != rejects[k] {
				t.Errorf("shard %d: Verdict %d answers %d entries, its Reject carried %d", i, k, verdicts[k], rejects[k])
			}
			entries += rejects[k]
		}
		frames += len(rejects)
	}
	if entries != res.Bounced {
		t.Errorf("Reject frames carried %d entries, the router counted %d bounces", entries, res.Bounced)
	}
	if frames == 0 || frames >= entries {
		t.Errorf("%d Reject frames for %d bounced tasks; want fewer frames than tasks", frames, entries)
	}
	t.Logf("%d bounced tasks in %d Reject frames; %s", entries, frames, res.Combined())
}
