package main

// sim-trace: one long AQA-capped run at paper-beyond scale, large enough
// for the simulator's auto-sharding to engage. Arrivals stream from a
// generated CSV trace through tracein into sim.Config.Source; a node
// fail-stop/recovery schedule, an energy ledger and a telemetry store
// with a discarding flight recorder ride along. A round is one whole run
// of the trace.

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/dr"
	"repro/internal/faults"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/tracein"
	"repro/internal/units"
	"repro/internal/workload"
)

var traceShapeDefault = traceShape{nodes: 100000, util: 0.85, horizon: time.Hour}

const traceFailures = 64

type traceInputs struct {
	path     string
	rows     int
	failures []faults.NodeEvent
	bid      dr.Bid
}

func newTraceInputs(o opts, shape traceShape) (*traceInputs, error) {
	dir, err := scratch(o, "trace")
	if err != nil {
		return nil, err
	}
	in := &traceInputs{path: filepath.Join(dir, "jobs.csv")}
	if in.rows, err = writeTrace(in.path, o.seed, shape); err != nil {
		return nil, err
	}
	if in.failures, err = failureSchedule(o.seed, shape.nodes, traceFailures, shape.horizon); err != nil {
		return nil, err
	}
	// Natural draw of the loaded cluster: busy nodes uncapped at TDP (the
	// trace template's maximum), the rest idle. The bid asks for 80% of
	// it with a 15% reserve, so the AQA cap binds.
	natural := units.Power(shape.util*float64(shape.nodes))*workload.NodeTDP +
		units.Power((1-shape.util)*float64(shape.nodes))*workload.NodeIdlePower
	in.bid = dr.Bid{AvgPower: 0.80 * natural, Reserve: 0.15 * natural}
	return in, nil
}

// traceConfig builds the undecorated configuration of one run of the
// trace, streaming arrivals from src.
func traceConfig(in *traceInputs, shape traceShape, runSeed uint64, src sim.ArrivalSource) sim.Config {
	store := telemetry.NewStore()
	store.SetRecorder(telemetry.NewRecorder(io.Discard))
	return sim.Config{
		Nodes:        shape.nodes,
		Bid:          in.bid,
		Signal:       dr.NewRandomWalk(runSeed^0x5eed, 4*time.Second, 0.25, 8*shape.horizon),
		Horizon:      shape.horizon,
		Seed:         runSeed,
		VariationStd: 0.05,
		Source:       src,
		Failures:     in.failures,
		Ledger:       ledger.New(),
		Telemetry:    store,
	}
}

// traceRun runs the trace once and checks its outputs.
func traceRun(in *traceInputs, shape traceShape, runSeed uint64, traced bool, lay simLayers) (runStat, error) {
	r, err := tracein.Open(in.path, tracein.Options{MaxNodes: shape.nodes})
	if err != nil {
		return runStat{}, err
	}
	defer r.Close()
	cfg := traceConfig(in, shape, runSeed, r)
	probe := &runProbe{traced: traced}
	decorate(&cfg, probe, lay, nil)
	start := time.Now()
	res, err := sim.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return runStat{}, err
	}
	if err := checkAllJobsDone(res, in.rows); err != nil {
		return runStat{}, err
	}
	end := res.Tracking[len(res.Tracking)-1].Time.Add(time.Second).UnixMilli()
	if err := checkLedger(cfg.Ledger.SnapshotAt(end), res, shape.nodes); err != nil {
		return runStat{}, err
	}
	if probe.firstAt.IsZero() {
		return runStat{}, fmt.Errorf("run never pulled an arrival")
	}
	return runStat{
		setup: probe.firstAt.Sub(start), wall: wall, wrapped: time.Duration(probe.wrappedNs),
		steps: len(res.Tracking), jobs: len(res.Jobs), requeue: res.Requeues,
	}, nil
}

func runTrace(o opts) (*outcome, error) {
	shape := traceShapeDefault
	in, err := newTraceInputs(o, shape)
	if err != nil {
		return nil, err
	}
	// Round 0 warms the process up; it is checked but not timed.
	if _, err := traceRun(in, shape, sweep.DeriveSeed(o.seed, 0), false, simLayers{}); err != nil {
		return nil, err
	}
	lay := newSimLayers(o.traced)
	out := &outcome{}
	var agg simAgg
	mem0 := readMem()
	end := deadline(o)
	for round := 1; time.Now().Before(end); round++ {
		s, err := traceRun(in, shape, sweep.DeriveSeed(o.seed, round), o.traced, lay)
		if err != nil {
			return nil, err
		}
		agg.add(s)
		out.rounds = append(out.rounds, s.wall.Seconds())
		out.setup = append(out.setup, s.setup.Seconds())
		out.rates = append(out.rates, float64(s.steps)/(s.wall-s.setup).Seconds())
		out.attempted++
	}
	mem1 := readMem()
	out.allocBytes = mem1.alloc - mem0.alloc
	if o.traced {
		out.layers = agg.layers(lay, len(out.rounds))
		gcLayers(out.layers, mem0, mem1, len(out.rounds))
	}
	return out, nil
}
