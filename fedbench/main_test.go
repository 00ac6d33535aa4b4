package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtsads/internal/experiment"
	"rtsads/internal/federation"
	"rtsads/internal/federation/wire"
	"rtsads/internal/task"
	"rtsads/internal/workload"
)

// tinyTasks keeps every self-test repetition well under a second.
const tinyTasks = 300

// childEnv makes the test binary act as the benchmark binary, so a test
// can run the benchmark's forked path: the child processes it starts are
// this binary again.
const childEnv = "FEDBENCH_SELFTEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// contract is the part of BENCHMARK.json the self-test checks output
// against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return c
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// TestEveryWorkloadPrintsItsMetrics runs a tiny instance of each workload
// the contract names, untraced and traced and split across its processes,
// and checks that the last line of output carries exactly the contract's
// metrics, each with its unit, on a correct run.
func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	t.Setenv(childEnv, "1")
	c := loadContract(t)
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(c.Workloads), len(specs))
	}
	for _, wl := range c.Workloads {
		for trace, want := range map[int][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{0: c.EndToEnd, 1: c.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", wl.Name, "--seed", "3", "--seconds", "0.01",
				"--tasks", strconv.Itoa(tinyTasks), "--trace", strconv.Itoa(trace)}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d: %s", wl.Name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not a result: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Attempted < forks*tinyTasks || res.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s",
					wl.Name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, contract names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", wl.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s has unit %q, contract says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCorrectnessChecksRun checks that every repetition of every workload
// evaluated its ground-truth checks, and that they passed.
func TestCorrectnessChecksRun(t *testing.T) {
	for _, s := range specs {
		s.tasks = tinyTasks
		for _, traced := range []bool{false, true} {
			m := measure(s, 5, time.Millisecond, traced, io.Discard)
			if m.err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, m.err)
			}
			for _, r := range m.reps {
				if r.checks == 0 {
					t.Errorf("%s traced=%v seed %d: no correctness check ran", s.name, traced, r.seed)
				}
				if len(r.problems) > 0 {
					t.Errorf("%s traced=%v seed %d: %v", s.name, traced, r.seed, r.problems)
				}
			}
		}
	}
}

// TestProbesArePassThrough proves the planner and connection wrappers
// and the observers change no behaviour: sim-overload gives identical hit,
// purge and shed counts plain, through the plan probe, with an observer on
// every shard, and with every router→shard batch sent through a probed
// connection and back.
func TestProbesArePassThrough(t *testing.T) {
	s, err := lookupSpec("sim-overload")
	if err != nil {
		t.Fatal(err)
	}
	s.tasks = 3000
	const seed = 11
	w, err := workload.Generate(s.params(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.simConfig(w, experiment.RTSADS)
	plain, err := federation.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := countsOf(plain)
	if want.hits == 0 || want.purged == 0 || want.shed == 0 {
		t.Fatalf("workload too light to compare: %+v", want)
	}

	r, got, err := runSim(s, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("through the plan probe: %+v, plain RT-SADS %+v", got, want)
	}
	if err := r.observeSim(s, want); err != nil {
		t.Fatal(err)
	}
	if len(r.problems) > 0 {
		t.Errorf("with observers: %v", r.problems)
	}

	wp := new(wireProbe)
	client, server := net.Pipe()
	router := wire.NewConn(probedConn{Conn: client, probe: wp})
	shard := wire.NewConn(server)
	echoed := make(chan error, 1)
	go func() {
		for {
			typ, body, err := shard.ReadFrame()
			if err != nil {
				echoed <- nil
				return
			}
			if err := shard.WriteFrame(typ, body); err != nil {
				echoed <- err
				return
			}
		}
	}()
	var buf []byte
	cfg.Transport = func(_ int, batch []*task.Task) []*task.Task {
		buf = wire.AppendSubmit(buf[:0], batch)
		if err := router.WriteFrame(wire.TypeSubmit, buf); err != nil {
			t.Fatalf("write submit: %v", err)
		}
		_, body, err := router.ReadFrame()
		if err != nil {
			t.Fatalf("read echo: %v", err)
		}
		out, err := wire.DecodeSubmit(body, func() *task.Task { return new(task.Task) })
		if err != nil {
			t.Fatalf("decode echo: %v", err)
		}
		return out
	}
	viaConn, err := federation.Simulate(cfg)
	client.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-echoed; err != nil {
		t.Fatalf("echo: %v", err)
	}
	if got := countsOf(viaConn); got != want {
		t.Errorf("through the probed connection: %+v, plain %+v", got, want)
	}
	if wp.bytesOut.Load() == 0 || wp.bytesOut.Load() != wp.bytesIn.Load() {
		t.Errorf("probed connection counted %d bytes out, %d in; want equal and non-zero", wp.bytesOut.Load(), wp.bytesIn.Load())
	}
}
