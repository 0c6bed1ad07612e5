package main

import (
	"io"
	"net"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/dr"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/tracein"
)

// TestDecoratedSweepRunMatchesUndecorated: every sweep configuration gives
// the same Result with its budgeter and signal decorated (timed, counted
// and checked) as without.
func TestDecoratedSweepRunMatchesUndecorated(t *testing.T) {
	in := newSweepInputs()
	lay := newSimLayers(true)
	for i := 0; i < sweepRuns; i++ {
		plain, _, err := sweepConfig(in, 3, 0, i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(plain)
		if err != nil {
			t.Fatal(err)
		}
		dec := plain
		probe := &runProbe{traced: true}
		pb := decorate(&dec, probe, lay, checkAllocation)
		got, err := sim.Run(dec)
		if err != nil {
			t.Fatal(err)
		}
		if pb.err != nil {
			t.Fatalf("config %d: %v", i, pb.err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("config %d: decorated Result differs from the undecorated one", i)
		}
		if probe.firstAt.IsZero() || probe.wrappedNs == 0 {
			t.Fatalf("config %d: probe saw no calls", i)
		}
	}
	if lay.budget.calls.Load() == 0 || lay.dr.calls.Load() == 0 {
		t.Fatal("decorated layers counted no calls")
	}
}

// TestDecoratedTraceRunMatchesUndecorated: a sharded run streamed from a
// generated trace, with failures and a ledger, gives the same Result with
// its source and signal decorated as without.
func TestDecoratedTraceRunMatchesUndecorated(t *testing.T) {
	shape := traceShape{nodes: 20000, util: 0.85, horizon: 10 * time.Minute}
	in, err := newTraceInputs(opts{seed: 5, dir: t.TempDir()}, shape)
	if err != nil {
		t.Fatal(err)
	}
	run := func(decorated bool) sim.Result {
		r, err := tracein.Open(in.path, tracein.Options{MaxNodes: shape.nodes})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		cfg := traceConfig(in, shape, sweep.DeriveSeed(5, 1), r)
		if decorated {
			decorate(&cfg, &runProbe{traced: true}, newSimLayers(true), nil)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(false)
	if want.Requeues == 0 {
		t.Fatal("the failure schedule killed no job; the test would not cover requeues")
	}
	if !reflect.DeepEqual(run(true), want) {
		t.Fatal("decorated Result differs from the undecorated one")
	}
}

// plainSignal is a dr.Signal without NextChange.
type plainSignal struct{}

func (plainSignal) At(time.Duration) float64 { return 0 }

// TestDecoratorsForwardOptionalInterfaces: wrapping must neither hide nor
// invent dr.Stepped or the transport's deadline methods.
func TestDecoratorsForwardOptionalInterfaces(t *testing.T) {
	if _, ok := wrapSignal(dr.NewRandomWalk(1, 4*time.Second, 0.25, time.Hour), &runProbe{}, nil).(dr.Stepped); !ok {
		t.Error("wrapping a dr.Stepped hid NextChange")
	}
	if _, ok := wrapSignal(plainSignal{}, &runProbe{}, nil).(dr.Stepped); ok {
		t.Error("wrapping a plain dr.Signal invented NextChange")
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if _, ok := wrapRW(a, &wireStats{}).(deadliner); !ok {
		t.Error("wrapping a net.Conn hid its deadlines")
	}
	if _, ok := wrapRW(struct{ io.ReadWriteCloser }{b}, &wireStats{}).(deadliner); ok {
		t.Error("wrapping a plain stream invented deadlines")
	}
}

// TestWriteTraceIsSeeded: the same seed writes the same trace, another
// seed a different one, and every width stays within 1 to 512 nodes.
func TestWriteTraceIsSeeded(t *testing.T) {
	dir := t.TempDir()
	shape := traceShape{nodes: 4096, util: 0.8, horizon: 20 * time.Minute}
	read := func(name string, seed uint64) []string {
		p := filepath.Join(dir, name)
		if _, err := writeTrace(p, seed, shape); err != nil {
			t.Fatal(err)
		}
		r, err := tracein.Open(p, tracein.Options{MaxNodes: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var rows []string
		for {
			a, typ, ok, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return rows
			}
			rows = append(rows, a.JobID+"/"+typ.Name)
		}
	}
	a, b, c := read("a.csv", 1), read("b.csv", 1), read("c.csv", 2)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed wrote different traces")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds wrote the same trace")
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// TestCtrlFailoverAdoptsEverySession runs a small fleet through the
// control-plane workload's own steps: a first generation that crashes, a
// failover that adopts every session under the next epoch, and checked
// rounds with the transports decorated.
func TestCtrlFailoverAdoptsEverySession(t *testing.T) {
	in := newCtrlInputs(2, 24)
	dir := t.TempDir()
	gen1 := filepath.Join(dir, "gen1")
	prev, err := writeGen1(in, gen1)
	if err != nil {
		t.Fatal(err)
	}
	lay := &ctrlLayers{budget: &layer{}}
	v := clock.NewVirtual(ctrlStart.Add(time.Hour))
	if err := copyDir(gen1, filepath.Join(dir, "gen2")); err != nil {
		t.Fatal(err)
	}
	g, rec, err := startGeneration(in, filepath.Join(dir, "gen2"), v, prev, lay, true)
	if err != nil {
		t.Fatal(err)
	}
	defer g.crash()
	if rec.Sessions != len(in.jobs) {
		t.Fatalf("recovered %d sessions, want %d", rec.Sessions, len(in.jobs))
	}
	if err := g.awaitUpdates(uint64(len(in.jobs))); err != nil {
		t.Fatal(err)
	}
	if err := checkFailover(int(g.adopted.Value()), len(in.jobs), prev, g.mgr.Epoch()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := g.round(in, v); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if got := lay.mgrWire.writes.Load(); got != int64(2*6*len(in.jobs)) {
		t.Fatalf("manager wrote %d times, want 2 per SetBudget (adoption + 5 rounds)", got)
	}
	if lay.budget.calls.Load() != 5 || lay.encode.calls.Load() == 0 || lay.decode.calls.Load() == 0 {
		t.Fatal("decorated layers counted no calls")
	}
}
