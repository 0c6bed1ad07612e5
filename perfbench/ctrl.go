package main

// ctrl-fanout: a clustermgr.Manager configured as anord configures it
// (durable store, ledger, metrics, telemetry, EvenSlowdown) drives about
// a thousand sessions over in-memory transports wrapped in proto.NewConn,
// while the benchmark steps the virtual clock.
//
// Set-up is a failover: durable.Open replays the state directory a first
// generation left behind, and every session re-Hellos and is adopted. A
// round is one Tick: every endpoint decodes its SetBudget and answers with
// a ModelUpdate, and the round ends once the manager's own
// anord_model_updates_total counter shows every update absorbed.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/clock"
	"repro/internal/clustermgr"
	"repro/internal/dr"
	"repro/internal/durable"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/proto"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/units"
	"repro/internal/workload"
)

const (
	ctrlSessions  = 1000
	ctrlFailovers = 9 // set-ups per run; setup_s is their median
	ctrlGen1Ticks = 20
	ctrlPeriod    = clustermgr.DefaultPeriod
)

var ctrlStart = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// ctrlJob is one session's identity and the curve the manager believes.
type ctrlJob struct {
	id, typ  string
	nodes    int
	believed perfmodel.Model
	reported perfmodel.Model // the model the endpoint trains and reports
}

type ctrlInputs struct {
	jobs       []ctrlJob
	totalNodes int
	busyNodes  int
	bid        dr.Bid
	signal     dr.Signal
	typeModels map[string]perfmodel.Model
	defModel   perfmodel.Model
}

func newCtrlInputs(seed uint64, sessions int) *ctrlInputs {
	rng := stats.NewRNG(seed ^ 0xc7)
	in := &ctrlInputs{typeModels: map[string]perfmodel.Model{}, defModel: workload.LeastSensitive().RelativeModel()}
	catalog := workload.Catalog()
	for _, t := range catalog {
		in.typeModels[t.Name] = t.RelativeModel()
	}
	for i := 0; i < sessions; i++ {
		t := catalog[rng.Intn(len(catalog))]
		j := ctrlJob{id: fmt.Sprintf("job-%04d", i), typ: t.Name, nodes: 1 << rng.Intn(4), reported: t.RelativeModel()}
		if rng.Float64() < 0.1 {
			j.typ = "" // an unknown claim: the manager applies its default model
		}
		j.believed = in.defModel
		if m, ok := in.typeModels[j.typ]; ok {
			j.believed = m
		}
		in.jobs = append(in.jobs, j)
		in.busyNodes += j.nodes
	}
	in.totalNodes = in.busyNodes + in.busyNodes/10
	// The target moves around 75% of the fleet's uncapped draw, so the
	// budgeter has real work to split.
	natural := units.Power(in.busyNodes)*workload.NodeTDP + units.Power(in.totalNodes-in.busyNodes)*workload.NodeIdlePower
	in.bid = dr.Bid{AvgPower: 0.75 * natural, Reserve: 0.15 * natural}
	in.signal = dr.NewRandomWalk(seed^0x5eed, 4*time.Second, 0.25, 24*time.Hour)
	return in
}

func (in *ctrlInputs) target(now time.Time) units.Power {
	return in.bid.Target(in.signal.At(now.Sub(ctrlStart)))
}

// ctrlLayers are the decorated layers of the control-plane workload.
type ctrlLayers struct {
	budget  *layer
	mgrWire wireStats // manager side of every transport
	encode  layer     // endpoint Send minus time blocked in Write
	decode  layer     // endpoint Recv after its last Read returned
}

// endpoint is one job-tier session: it answers each SetBudget with a
// ModelUpdate reporting the power the cap allows.
type endpoint struct {
	job  ctrlJob
	conn *proto.Conn
	wire *wireStats // endpoint side of the transport; nil untraced
	mu   sync.Mutex
	seen capSeen
}

func (e *endpoint) serve(hello proto.Envelope, lay *ctrlLayers) {
	defer e.conn.Close()
	if err := e.conn.Send(hello); err != nil {
		return
	}
	var epochs int64
	for {
		env, err := e.conn.Recv()
		if err != nil {
			return
		}
		if e.wire != nil {
			lay.decode.add(time.Unix(0, e.wire.lastReadNs.Load()), 1)
		}
		switch env.Kind {
		case proto.KindSetBudget:
			capW := env.SetBudget.PowerCapWatts
			e.mu.Lock()
			e.seen.count++
			e.seen.epoch = env.Epoch
			e.seen.capW = capW
			e.mu.Unlock()
			epochs++
			draw := capW
			if pmax := e.job.reported.PMax.Watts(); draw > pmax {
				draw = pmax
			}
			u := proto.ModelUpdateFor(e.job.id, e.job.reported, true)
			u.Epochs = epochs
			u.PowerWatts = draw * float64(e.job.nodes)
			u.TimestampUnixNano = ctrlStart.Add(time.Duration(epochs) * ctrlPeriod).UnixNano()
			var start time.Time
			var blocked0 int64
			if e.wire != nil {
				start, blocked0 = time.Now(), e.wire.writeNs.Load()
			}
			if err := e.conn.Send(proto.Envelope{Kind: proto.KindModelUpdate, ModelUpdate: &u}); err != nil {
				return
			}
			if e.wire != nil {
				lay.encode.add(start.Add(time.Duration(e.wire.writeNs.Load()-blocked0)), 1)
			}
		case proto.KindPing:
			if err := e.conn.Send(proto.Envelope{Kind: proto.KindPong, Pong: &proto.Pong{Seq: env.Ping.Seq}}); err != nil {
				return
			}
		}
	}
}

// generation is one controller process: its store, manager and fleet.
type generation struct {
	store   *durable.Store
	mgr     *clustermgr.Manager
	reg     *obs.Registry
	led     *ledger.Ledger
	fleet   []*endpoint
	wg      sync.WaitGroup
	updates *obs.Counter
	adopted *obs.Counter
}

// startGeneration opens the state directory (replaying what a previous
// generation left), starts a manager on it, and connects every session
// with a Hello carrying helloEpoch, the highest epoch the endpoints heard.
func startGeneration(in *ctrlInputs, dir string, v *clock.Virtual, helloEpoch uint64, lay *ctrlLayers, traced bool) (*generation, *durable.Recovery, error) {
	g := &generation{reg: obs.NewRegistry()}
	store, rec, err := durable.Open(durable.Options{
		Dir: dir, FlushEvery: 50 * time.Millisecond, SnapshotEvery: 30 * time.Second, Metrics: g.reg,
	})
	if err != nil {
		return nil, nil, err
	}
	g.store, g.led = store, rec.Ledger
	tel := telemetry.NewStore()
	tel.SetRecorder(telemetry.NewRecorder(io.Discard))
	var policy budget.Budgeter = budget.EvenSlowdown{}
	if traced {
		policy = &probedBudgeter{inner: policy, run: &runProbe{traced: true}, lay: lay.budget}
	}
	mgr, err := clustermgr.NewManager(clustermgr.Config{
		Clock:            v,
		Budgeter:         policy,
		Target:           in.target,
		Period:           ctrlPeriod,
		TotalNodes:       in.totalNodes,
		IdlePower:        workload.NodeIdlePower,
		TypeModels:       in.typeModels,
		DefaultModel:     in.defModel,
		HeartbeatTimeout: 10 * time.Second,
		ModelTTL:         30 * time.Second,
		WriteTimeout:     5 * time.Second,
		Metrics:          g.reg,
		Telemetry:        tel,
		Ledger:           rec.Ledger,
		Store:            store,
		Recovered:        rec.State,
		Reserve:          in.bid.Reserve,
	})
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	g.mgr = mgr
	g.updates = g.reg.Counter("anord_model_updates_total", "")
	g.adopted = g.reg.Counter("anord_recovered_sessions_adopted_total", "")
	for _, j := range in.jobs {
		var a, b io.ReadWriteCloser
		a, b = net.Pipe()
		ep := &endpoint{job: j}
		if traced {
			ep.wire = &wireStats{}
			a, b = wrapRW(a, &lay.mgrWire), wrapRW(b, ep.wire)
		}
		mgr.AttachConn(proto.NewConn(a))
		ep.conn = proto.NewConn(b)
		g.fleet = append(g.fleet, ep)
		hello := proto.Envelope{Kind: proto.KindHello, Epoch: helloEpoch,
			Hello: &proto.Hello{JobID: j.id, TypeName: j.typ, Nodes: j.nodes}}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			ep.serve(hello, lay)
		}()
	}
	return g, rec, nil
}

// awaitUpdates spins until the manager has absorbed n model updates in
// total. It gives up, as a program fault, after a minute of host time.
func (g *generation) awaitUpdates(n uint64) error {
	limit := time.Now().Add(time.Minute)
	for g.updates.Value() < n {
		if time.Now().After(limit) {
			return fmt.Errorf("manager absorbed %d of %d model updates within a minute", g.updates.Value(), n)
		}
		runtime.Gosched()
	}
	return nil
}

// resetSeen clears what each endpoint received; call it between rounds.
func (g *generation) resetSeen() {
	for _, e := range g.fleet {
		e.mu.Lock()
		e.seen = capSeen{nodes: e.job.nodes, floor: e.job.believed.PMin.Watts()}
		e.mu.Unlock()
	}
}

func (g *generation) seen() []capSeen {
	out := make([]capSeen, len(g.fleet))
	for i, e := range g.fleet {
		e.mu.Lock()
		out[i] = e.seen
		e.mu.Unlock()
	}
	return out
}

// round runs one control round and checks it, returning the Tick time and
// the time until every update was absorbed.
func (g *generation) round(in *ctrlInputs, v *clock.Virtual) (tick, absorb time.Duration, err error) {
	v.Advance(ctrlPeriod)
	g.resetSeen()
	want := g.updates.Value() + uint64(len(g.fleet))
	start := time.Now()
	g.mgr.Tick()
	tick = time.Since(start)
	if err := g.awaitUpdates(want); err != nil {
		return 0, 0, err
	}
	absorb = time.Since(start) - tick
	idle := in.totalNodes - in.busyNodes
	jobBudget := in.target(v.Now()) - workload.NodeIdlePower*units.Power(idle)
	return tick, absorb, checkRound(g.seen(), g.mgr.Epoch(), jobBudget)
}

// crash ends a generation the way kill -9 would for its state directory:
// the WAL is flushed and closed before the sessions drop, so no goodbye
// reaches the journal.
func (g *generation) crash() error {
	err := g.store.Close()
	g.stop()
	return err
}

// stop closes every session and waits for both sides to exit.
func (g *generation) stop() {
	g.mgr.CloseSessions()
	g.mgr.Wait()
	g.wg.Wait()
}

// writeGen1 runs a first controller generation for a few rounds in dir and
// crashes it, leaving the state directory a failover replays.
func writeGen1(in *ctrlInputs, dir string) (uint64, error) {
	v := clock.NewVirtual(ctrlStart)
	var lay ctrlLayers
	g, _, err := startGeneration(in, dir, v, 0, &lay, false)
	if err != nil {
		return 0, err
	}
	epoch := g.mgr.Epoch()
	// Fresh sessions get no cap until the first Tick; wait until every
	// Hello is registered.
	for limit := time.Now().Add(time.Minute); g.mgr.ActiveJobs() < len(in.jobs); runtime.Gosched() {
		if time.Now().After(limit) {
			g.crash()
			return 0, fmt.Errorf("first generation registered %d of %d sessions within a minute", g.mgr.ActiveJobs(), len(in.jobs))
		}
	}
	for i := 0; i < ctrlGen1Ticks; i++ {
		if _, _, err := g.round(in, v); err != nil {
			g.crash()
			return 0, fmt.Errorf("first generation: %w", err)
		}
	}
	return epoch, g.crash()
}

// copyDir copies a flat state directory and syncs the copy, so a failover
// timed after it does not share the disk with the copy's writeback.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			return fmt.Errorf("unexpected directory %s in state dir", e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := writeSynced(filepath.Join(dst, e.Name()), b); err != nil {
			return err
		}
	}
	d, err := os.Open(dst)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// writeSynced writes b to a new file at path and syncs it.
func writeSynced(path string, b []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	return errors.Join(err, f.Sync(), f.Close())
}

func runCtrl(o opts) (*outcome, error) {
	in := newCtrlInputs(o.seed, ctrlSessions)
	base, err := scratch(o, "ctrl")
	if err != nil {
		return nil, err
	}
	gen1 := filepath.Join(base, "gen1")
	prevEpoch, err := writeGen1(in, gen1)
	if err != nil {
		return nil, err
	}
	lay := &ctrlLayers{}
	if o.traced {
		lay.budget = &layer{}
	}
	out := &outcome{}
	var replay []float64
	// Every failover replays its own copy of the first generation's state,
	// all made and synced before the first one is timed.
	dirs := make([]string, ctrlFailovers)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("gen2-%d", i))
		if err := copyDir(gen1, dirs[i]); err != nil {
			return nil, err
		}
	}
	var g *generation
	v := clock.NewVirtual(ctrlStart.Add(time.Duration(ctrlGen1Ticks+1) * ctrlPeriod))
	for _, dir := range dirs {
		if g != nil {
			g.stop()
			if err := g.store.Close(); err != nil {
				return nil, err
			}
		}
		// The previous generation's garbage is not the failover's work.
		runtime.GC()
		start := time.Now()
		var rec *durable.Recovery
		g, rec, err = startGeneration(in, dir, v, prevEpoch, lay, o.traced)
		if err != nil {
			return nil, err
		}
		if err := g.awaitUpdates(uint64(len(g.fleet))); err != nil {
			return nil, errors.Join(err, g.crash())
		}
		out.setup = append(out.setup, time.Since(start).Seconds())
		replay = append(replay, rec.Duration.Seconds())
		if err := checkFailover(int(g.adopted.Value()), len(in.jobs), prevEpoch, g.mgr.Epoch()); err != nil {
			return nil, errors.Join(err, g.crash())
		}
		if err := checkRound(g.seen(), g.mgr.Epoch(), units.Power(1e18)); err != nil {
			return nil, errors.Join(fmt.Errorf("adoption caps: %w", err), g.crash())
		}
	}
	defer g.crash()

	var tickSum, absorbSum time.Duration
	writes0, bytes0, mgrWrite0 := lay.mgrWire.writes.Load(), lay.mgrWire.bytes.Load(), lay.mgrWire.writeNs.Load()
	walBytes := g.reg.Counter("durable_wal_bytes_total", "")
	syncs := g.reg.Counter("durable_wal_syncs_total", "")
	wal0, sync0 := walBytes.Value(), syncs.Value()
	enc0, dec0 := lay.encode.busyNs.Load(), lay.decode.busyNs.Load()
	encN0, decN0 := lay.encode.calls.Load(), lay.decode.calls.Load()
	mem0 := readMem()
	end := deadline(o)
	for len(out.rounds) == 0 || time.Now().Before(end) {
		tick, absorb, err := g.round(in, v)
		if err != nil {
			return nil, err
		}
		tickSum += tick
		absorbSum += absorb
		out.rounds = append(out.rounds, (tick + absorb).Seconds())
		out.rates = append(out.rates, ctrlPeriod.Seconds()/(tick+absorb).Seconds())
		out.attempted += len(g.fleet)
	}
	mem1 := readMem()
	out.allocBytes = mem1.alloc - mem0.alloc
	snap := g.led.SnapshotAt(v.Now().UnixMilli())
	if !snap.Conserved {
		return nil, checkFailed("controller ledger not conserved: Σ jobs + idle − total = %d µJ", snap.ConservationDeltaMicroJ)
	}
	if o.traced {
		n := float64(len(out.rounds))
		caps := n * float64(len(g.fleet))
		budgetNs := lay.budget.busyNs.Load()
		mgrWriteNs := lay.mgrWire.writeNs.Load() - mgrWrite0
		out.layers = map[string]metric{
			"budget.calls":                {Value: float64(lay.budget.calls.Load()) / n},
			"budget.jobs_per_call":        {Value: float64(lay.budget.items.Load()) / float64(lay.budget.calls.Load())},
			"budget.busy_ms":              {Value: lay.budget.busyMs() / n},
			"clustermgr.tick_ms":          {Value: float64(tickSum) / 1e6 / n},
			"clustermgr.self_ms":          {Value: float64(int64(tickSum)-budgetNs-mgrWriteNs) / 1e6 / n},
			"clustermgr.absorb_ms":        {Value: float64(absorbSum) / 1e6 / n},
			"proto.encode_us":             {Value: float64(lay.encode.busyNs.Load()-enc0) / 1e3 / float64(lay.encode.calls.Load()-encN0)},
			"proto.decode_us":             {Value: float64(lay.decode.busyNs.Load()-dec0) / 1e3 / float64(lay.decode.calls.Load()-decN0)},
			"proto.bytes_per_cap":         {Value: float64(lay.mgrWire.bytes.Load()-bytes0) / caps},
			"proto.writes_per_cap":        {Value: float64(lay.mgrWire.writes.Load()-writes0) / caps},
			"durable.replay_ms":           {Value: median(replay) * 1e3},
			"durable.wal_bytes_per_round": {Value: float64(walBytes.Value()-wal0) / n},
			"durable.syncs":               {Value: float64(syncs.Value()-sync0) / n},
		}
		gcLayers(out.layers, mem0, mem1, len(out.rounds))
	}
	return out, nil
}
