package main

// sim-sweep: many short 1000-node sim.Runs at paper scale, driven through
// internal/sweep as anor-sim -runs drives them. A round is one run of each
// of 16 configurations: two per-job budgeters, with and without the §6.4
// exemption, two variation levels, and with and without misclassified
// claims. Every run has its own derived seed.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/budget"
	"repro/internal/dr"
	"repro/internal/perfmodel"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/internal/workload"
)

const (
	sweepNodes   = 1000
	sweepScale   = 25 // the paper's 1000-node study scales each type ×25
	sweepUtil    = 0.75
	sweepHorizon = 10 * time.Minute
	sweepRuns    = 16 // configurations per round
)

// sweepInputs are the read-only inputs every run of the sweep shares.
type sweepInputs struct {
	types        []workload.Type
	weights      map[string]float64
	typeModels   map[string]perfmodel.Model
	defaultModel perfmodel.Model
	bid          dr.Bid
	workers      int
}

func newSweepInputs() *sweepInputs {
	in := &sweepInputs{
		weights:      map[string]float64{},
		typeModels:   map[string]perfmodel.Model{},
		defaultModel: workload.LeastSensitive().RelativeModel(),
		workers:      runtime.GOMAXPROCS(0),
	}
	for _, t := range workload.LongRunning() {
		st := t.Scale(sweepScale)
		in.types = append(in.types, st)
		in.weights[st.Name] = 1
		in.typeModels[st.Name] = st.RelativeModel()
	}
	// The bid follows anor-sim's default, 80% of the natural draw with a
	// 15% reserve. The natural draw is computed from the job mix rather
	// than probed on one seed's schedule, so every seed's runs face the
	// same bid: the schedule splits node demand evenly across the types,
	// so busy nodes draw the types' mean uncapped power.
	var pmax units.Power
	for _, t := range in.types {
		pmax += t.PMax
	}
	pmax /= units.Power(len(in.types))
	busy := sweepUtil * sweepNodes
	natural := units.Power(busy)*pmax + units.Power(sweepNodes-busy)*workload.NodeIdlePower
	in.bid = dr.Bid{AvgPower: 0.80 * natural, Reserve: 0.15 * natural}
	return in
}

// simLayers are the decorated layers of the simulator workloads.
type simLayers struct {
	budget, tracein, dr *layer
}

func newSimLayers(traced bool) simLayers {
	if !traced {
		return simLayers{}
	}
	return simLayers{budget: &layer{}, tracein: &layer{}, dr: &layer{}}
}

// runStat is one sim.Run's measurements.
type runStat struct {
	setup, wall, wrapped time.Duration // Run entry → first input call; Run; inside decorators
	fnWall               time.Duration // the whole sweep run function
	steps, jobs, requeue int
}

// sweepConfig builds the undecorated configuration of run i of a round,
// and returns it with the number of jobs it submits.
func sweepConfig(in *sweepInputs, seed uint64, round, i int) (sim.Config, int, error) {
	runSeed := sweep.DeriveSeed(seed, round*sweepRuns+i)
	var misclassify map[string]string
	if i&8 != 0 {
		misclassify = map[string]string{"bt.D.81": "is.D.32"}
	}
	arrivals, err := schedule.Generate(schedule.Config{
		RNG: stats.NewRNG(runSeed), Types: in.types,
		Utilization: sweepUtil, TotalNodes: sweepNodes, Horizon: sweepHorizon,
		Misclassify: misclassify,
	})
	if err != nil {
		return sim.Config{}, 0, err
	}
	var policy budget.Budgeter = budget.EvenSlowdown{}
	if i&1 != 0 {
		policy = budget.EvenPower{}
	}
	variation := 0.0
	if i&4 != 0 {
		variation = 0.15 / 2.576 // 99% of nodes within ±15%
	}
	return sim.Config{
		Nodes: sweepNodes, Types: in.types, Weights: in.weights, Arrivals: arrivals,
		Bid:               in.bid,
		Signal:            dr.NewRandomWalk(runSeed^0x5eed, 4*time.Second, 0.25, 8*sweepHorizon),
		Horizon:           sweepHorizon,
		Seed:              runSeed,
		Shards:            1, // the sweep saturates the worker pool, as in anor-sim
		VariationStd:      variation,
		FeedbackQoSExempt: i&2 != 0,
		Budgeter:          policy,
		TypeModels:        in.typeModels,
		DefaultModel:      in.defaultModel,
		TrackWarmup:       2 * time.Minute,
	}, len(arrivals), nil
}

// decorate wraps a configuration's benchmark-supplied inputs. The signal
// and the source are always wrapped, because their first call ends the
// engine's set-up; the budgeter only when traced or checked. It returns
// the budgeter decorator, or nil.
func decorate(cfg *sim.Config, probe *runProbe, lay simLayers, check func([]budget.Job, units.Power, []units.Power) error) *probedBudgeter {
	cfg.Signal = wrapSignal(cfg.Signal, probe, lay.dr)
	if cfg.Source != nil {
		cfg.Source = &probedSource{inner: cfg.Source, run: probe, lay: lay.tracein}
	}
	if cfg.Budgeter == nil || (!probe.traced && check == nil) {
		return nil
	}
	pb := &probedBudgeter{inner: cfg.Budgeter, run: probe, lay: lay.budget, check: check}
	cfg.Budgeter = pb
	return pb
}

// sweepRound runs one round of the sweep. checked holds every budgeter
// call to checkAllocation.
func sweepRound(ctx context.Context, in *sweepInputs, seed uint64, round int, traced, checked bool, lay simLayers) ([]runStat, error) {
	var check func([]budget.Job, units.Power, []units.Power) error
	if checked {
		check = checkAllocation
	}
	return sweep.Map(ctx, sweepRuns, sweep.Options{Workers: in.workers},
		func(_ context.Context, i int) (runStat, error) {
			fnStart := time.Now()
			cfg, submitted, err := sweepConfig(in, seed, round, i)
			if err != nil {
				return runStat{}, err
			}
			probe := &runProbe{traced: traced}
			pb := decorate(&cfg, probe, lay, check)
			start := time.Now()
			res, err := sim.Run(cfg)
			wall := time.Since(start)
			if err != nil {
				return runStat{}, err
			}
			if pb != nil && pb.err != nil {
				return runStat{}, fmt.Errorf("run %d: %w", i, pb.err)
			}
			if err := checkJobsAccounted(res, submitted); err != nil {
				return runStat{}, fmt.Errorf("run %d: %w", i, err)
			}
			if probe.firstAt.IsZero() {
				return runStat{}, fmt.Errorf("run %d never evaluated its signal", i)
			}
			return runStat{
				setup: probe.firstAt.Sub(start), wall: wall, wrapped: time.Duration(probe.wrappedNs),
				fnWall: time.Since(fnStart),
				steps:  len(res.Tracking), jobs: len(res.Jobs), requeue: res.Requeues,
			}, nil
		})
}

func runSweep(o opts) (*outcome, error) {
	in := newSweepInputs()
	ctx := context.Background()
	// Round 0 warms the process up and checks every budgeter call; it is
	// not timed.
	if _, err := sweepRound(ctx, in, o.seed, 0, false, true, simLayers{}); err != nil {
		return nil, err
	}
	lay := newSimLayers(o.traced)
	out := &outcome{}
	var agg simAgg
	var fnBusy, roundWall time.Duration
	mem0 := readMem()
	end := deadline(o)
	for round := 1; time.Now().Before(end); round++ {
		start := time.Now()
		runs, err := sweepRound(ctx, in, o.seed, round, o.traced, false, lay)
		wall := time.Since(start)
		if err != nil {
			return nil, err
		}
		var setup time.Duration
		steps := 0
		for _, s := range runs {
			setup += s.setup
			fnBusy += s.fnWall
			steps += s.steps
			agg.add(s)
		}
		roundWall += wall
		out.rounds = append(out.rounds, wall.Seconds())
		out.setup = append(out.setup, setup.Seconds())
		// The workers set up in parallel: take the set-up's share of wall.
		out.rates = append(out.rates, float64(steps)/(wall.Seconds()-setup.Seconds()/float64(in.workers)))
		out.attempted += len(runs)
	}
	mem1 := readMem()
	out.allocBytes = mem1.alloc - mem0.alloc
	if o.traced {
		out.layers = agg.layers(lay, len(out.rounds))
		out.layers["sweep.busy_ratio"] = metric{Value: fnBusy.Seconds() / (roundWall.Seconds() * float64(in.workers))}
		gcLayers(out.layers, mem0, mem1, len(out.rounds))
	}
	return out, nil
}

// simAgg sums runStats over the measured rounds.
type simAgg struct {
	runs                  int
	setup, wall, wrapped  time.Duration
	steps, jobs, requeues int
}

func (a *simAgg) add(s runStat) {
	a.runs++
	a.setup += s.setup
	a.wall += s.wall
	a.wrapped += s.wrapped
	a.steps += s.steps
	a.jobs += s.jobs
	a.requeues += s.requeue
}

// layers turns the sums into per-layer metrics: simulator figures per
// sim.Run, layer figures per round.
func (a *simAgg) layers(lay simLayers, rounds int) map[string]metric {
	perRun := func(x float64) metric { return metric{Value: x / float64(a.runs)} }
	perRound := func(x float64) metric { return metric{Value: x / float64(rounds)} }
	m := map[string]metric{
		"sim.setup_ms":    perRun(float64(a.setup) / 1e6),
		"sim.self_ms":     perRun(float64(a.wall-a.wrapped) / 1e6),
		"sim.steps":       perRun(float64(a.steps)),
		"sim.jobs_done":   perRun(float64(a.jobs)),
		"sim.requeues":    perRun(float64(a.requeues)),
		"budget.calls":    perRound(float64(lay.budget.calls.Load())),
		"budget.busy_ms":  perRound(lay.budget.busyMs()),
		"tracein.rows":    perRound(float64(lay.tracein.items.Load())),
		"tracein.busy_ms": perRound(lay.tracein.busyMs()),
		"dr.busy_ms":      perRound(lay.dr.busyMs()),
	}
	if c := lay.budget.calls.Load(); c > 0 {
		m["budget.jobs_per_call"] = metric{Value: float64(lay.budget.items.Load()) / float64(c)}
	}
	return m
}
