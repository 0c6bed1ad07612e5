package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workload"
)

func wantCheck(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, errCheck) {
		t.Errorf("%s: check did not fire (err = %v)", what, err)
	}
}

func wantPass(t *testing.T, what string, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", what, err)
	}
}

func TestCheckAllocationFires(t *testing.T) {
	jobs := []budget.Job{
		{ID: "a", Nodes: 4, Model: workload.MustByName("bt.D.81").RelativeModel()},
		{ID: "b", Nodes: 2, Model: workload.MustByName("sp.D.81").RelativeModel()},
	}
	limit := units.Power(1500)
	caps := make([]units.Power, len(jobs))
	budget.EvenSlowdown{}.AllocateInto(jobs, limit, caps)
	wantPass(t, "EvenSlowdown's own allocation", checkAllocation(jobs, limit, caps))

	over := []units.Power{jobs[0].Model.PMax, jobs[1].Model.PMax}
	wantCheck(t, "Σ cap×nodes over budget", checkAllocation(jobs, limit, over))
	wantCheck(t, "cap above the model range", checkAllocation(jobs, 1e6, []units.Power{jobs[0].Model.PMax + 1, caps[1]}))
	wantCheck(t, "cap below the model range", checkAllocation(jobs, limit, []units.Power{jobs[0].Model.PMin - 1, caps[1]}))
	wantCheck(t, "missing cap", checkAllocation(jobs, limit, caps[:1]))
	floors := []units.Power{jobs[0].Model.PMin, jobs[1].Model.PMin}
	wantPass(t, "every cap at its floor over a tiny budget", checkAllocation(jobs, 10, floors))
}

func TestCheckJobsFire(t *testing.T) {
	res := sim.Result{Jobs: []sim.JobRecord{{ID: "a"}, {ID: "b"}}}
	wantPass(t, "all done", checkAllJobsDone(res, 2))
	wantCheck(t, "one job missing", checkAllJobsDone(res, 3))
	wantCheck(t, "job completed twice", checkAllJobsDone(sim.Result{Jobs: []sim.JobRecord{{ID: "a"}, {ID: "a"}}}, 2))
	wantCheck(t, "unfinished job", checkAllJobsDone(sim.Result{Jobs: res.Jobs, Unfinished: 1}, 3))
	wantPass(t, "accounted", checkJobsAccounted(sim.Result{Jobs: res.Jobs, Unfinished: 1}, 3))
	wantCheck(t, "job lost", checkJobsAccounted(res, 3))
}

func TestCheckLedgerFires(t *testing.T) {
	// One job drawing 500 W for 10 s next to 9 idle nodes at 70 W.
	led := ledger.New()
	h := led.Open(ledger.JobMeta{ID: "a", Nodes: 1}, 0)
	led.SetPower(h, 0, 500, false)
	led.SetIdle(0, 9, 70)
	var res sim.Result
	for s := 0; s < 10; s++ {
		res.Tracking = append(res.Tracking, trace.Point{Time: time.UnixMilli(int64(s) * 1000), Measured: 500 + 9*70})
	}
	snap := led.SnapshotAt(10000)
	wantPass(t, "consistent ledger", checkLedger(snap, res, 10))

	broken := snap
	broken.JobsMicroJ++
	wantCheck(t, "Σ jobs + idle ≠ total", checkLedger(broken, res, 10))
	off := res
	off.Tracking = append([]trace.Point(nil), res.Tracking...)
	off.Tracking[3].Measured += 100
	wantCheck(t, "total off the power integral", checkLedger(snap, off, 10))
}

func TestCheckFailoverFires(t *testing.T) {
	wantPass(t, "clean failover", checkFailover(1000, 1000, 4, 5))
	wantCheck(t, "session not adopted", checkFailover(999, 1000, 4, 5))
	wantCheck(t, "epoch not bumped", checkFailover(1000, 1000, 4, 4))
	wantCheck(t, "epoch skipped", checkFailover(1000, 1000, 4, 6))
}

func TestCheckRoundFires(t *testing.T) {
	seen := []capSeen{
		{count: 1, epoch: 3, capW: 200, nodes: 2, floor: 140},
		{count: 1, epoch: 3, capW: 150, nodes: 4, floor: 140},
	}
	wantPass(t, "good round", checkRound(seen, 3, 1000))
	wantCheck(t, "over target − idle draw", checkRound(seen, 3, 999))
	dup := append([]capSeen(nil), seen...)
	dup[1].count = 2
	wantCheck(t, "two SetBudgets", checkRound(dup, 3, 1000))
	none := append([]capSeen(nil), seen...)
	none[0].count = 0
	wantCheck(t, "no SetBudget", checkRound(none, 3, 1000))
	wantCheck(t, "stale epoch", checkRound(seen, 4, 1000))
	floors := []capSeen{{count: 1, epoch: 3, capW: 140, nodes: 2, floor: 140}}
	wantPass(t, "every cap at its floor", checkRound(floors, 3, 10))
}
