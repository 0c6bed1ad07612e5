package main

// Decorators on the program's public seams. Each one forwards every call
// unchanged to the value it wraps and, when handed a layer, counts the
// calls and the host time they took. Optional interfaces are forwarded
// too: a dr.Signal wrapper that hid dr.Stepped would silently turn off
// the simulator's fast-forward, and a transport wrapper that hid the
// deadline methods would make proto's timeouts inert.

import (
	"io"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/dr"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// layer accumulates one layer's work: calls, items handled and busy time.
// A nil *layer records nothing, so untraced runs pay one nil check.
type layer struct {
	calls  atomic.Int64
	items  atomic.Int64
	busyNs atomic.Int64
}

func (l *layer) add(start time.Time, items int) time.Duration {
	if l == nil {
		return 0
	}
	d := time.Since(start)
	l.calls.Add(1)
	l.items.Add(int64(items))
	l.busyNs.Add(int64(d))
	return d
}

func (l *layer) busyMs() float64 {
	if l == nil {
		return 0
	}
	return float64(l.busyNs.Load()) / 1e6
}

// runProbe is what one sim.Run's decorators share: when the engine first
// called into a benchmark-supplied input, which ends its set-up (always
// stamped), and the time spent inside wrapped calls (traced runs only),
// which sim.self_ms subtracts from the Run's wall time. One goroutine
// runs a sim.Run, so no field needs atomics.
type runProbe struct {
	firstAt   time.Time
	wrappedNs int64
	traced    bool
}

func (p *runProbe) enter() time.Time {
	if p.firstAt.IsZero() {
		p.firstAt = time.Now()
	}
	if !p.traced {
		return time.Time{}
	}
	return time.Now()
}

func (p *runProbe) leave(start time.Time, l *layer, items int) {
	if p.traced {
		p.wrappedNs += int64(l.add(start, items))
	}
}

// probedBudgeter decorates a budget.Budgeter.
type probedBudgeter struct {
	inner budget.Budgeter
	run   *runProbe
	lay   *layer
	// check, when set, validates every AllocateInto result against the
	// guarantees documented on budget.Budgeter (the simulator's path).
	check func(jobs []budget.Job, budget units.Power, caps []units.Power) error
	err   error
}

func (b *probedBudgeter) Name() string { return b.inner.Name() }

func (b *probedBudgeter) Allocate(jobs []budget.Job, p units.Power) budget.Allocation {
	start := b.run.enter()
	a := b.inner.Allocate(jobs, p)
	b.run.leave(start, b.lay, len(jobs))
	return a
}

func (b *probedBudgeter) AllocateInto(jobs []budget.Job, p units.Power, out []units.Power) {
	start := b.run.enter()
	b.inner.AllocateInto(jobs, p, out)
	b.run.leave(start, b.lay, len(jobs))
	if b.check != nil && b.err == nil {
		b.err = b.check(jobs, p, out)
	}
}

// probedSource decorates a sim.ArrivalSource.
type probedSource struct {
	inner sim.ArrivalSource
	run   *runProbe
	lay   *layer
}

func (s *probedSource) Next() (schedule.Arrival, workload.Type, bool, error) {
	start := s.run.enter()
	a, t, ok, err := s.inner.Next()
	n := 0
	if ok {
		n = 1
	}
	s.run.leave(start, s.lay, n)
	return a, t, ok, err
}

// probedSignal decorates a dr.Signal that has no NextChange.
type probedSignal struct {
	inner dr.Signal
	run   *runProbe
	lay   *layer
}

func (s *probedSignal) At(t time.Duration) float64 {
	start := s.run.enter()
	v := s.inner.At(t)
	s.run.leave(start, s.lay, 1)
	return v
}

// probedStepped decorates a dr.Stepped, keeping NextChange visible.
type probedStepped struct {
	probedSignal
	stepped dr.Stepped
}

func (s *probedStepped) NextChange(t time.Duration) time.Duration {
	start := s.run.enter()
	v := s.stepped.NextChange(t)
	s.run.leave(start, s.lay, 0)
	return v
}

func wrapSignal(sig dr.Signal, run *runProbe, lay *layer) dr.Signal {
	ps := probedSignal{inner: sig, run: run, lay: lay}
	if st, ok := sig.(dr.Stepped); ok {
		return &probedStepped{probedSignal: ps, stepped: st}
	}
	return &ps
}

// wireStats is one side's transport traffic.
type wireStats struct {
	writes     atomic.Int64
	bytes      atomic.Int64
	writeNs    atomic.Int64 // time blocked inside Write
	lastReadNs atomic.Int64 // wall clock when the last Read returned
}

// countingRW decorates the byte stream under a proto.Conn.
type countingRW struct {
	inner io.ReadWriteCloser
	st    *wireStats
}

func (c *countingRW) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	c.st.lastReadNs.Store(time.Now().UnixNano())
	return n, err
}

func (c *countingRW) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.inner.Write(p)
	c.st.writeNs.Add(int64(time.Since(start)))
	c.st.writes.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}

func (c *countingRW) Close() error { return c.inner.Close() }

type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// countingDeadlineRW keeps the transport's deadline methods visible.
type countingDeadlineRW struct {
	countingRW
	d deadliner
}

func (c *countingDeadlineRW) SetReadDeadline(t time.Time) error  { return c.d.SetReadDeadline(t) }
func (c *countingDeadlineRW) SetWriteDeadline(t time.Time) error { return c.d.SetWriteDeadline(t) }

func wrapRW(rw io.ReadWriteCloser, st *wireStats) io.ReadWriteCloser {
	c := countingRW{inner: rw, st: st}
	if d, ok := rw.(deadliner); ok {
		return &countingDeadlineRW{countingRW: c, d: d}
	}
	return &c
}
