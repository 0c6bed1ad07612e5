package main

// Output checks. Each one is computed from the inputs the benchmark
// generated and from properties the method must have, never from a stored
// copy of earlier output.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/budget"
	"repro/internal/ledger"
	"repro/internal/sim"
	"repro/internal/units"
)

// errCheck marks a failed output check, as opposed to a program error.
var errCheck = errors.New("output check failed")

func checkFailed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// wattSlack absorbs float rounding when comparing sums of caps against a
// budget; it is far below any cap granularity the budgeters use.
const wattSlack = 1e-6

// checkAllocation holds one budgeter call to the guarantees documented on
// budget.Budgeter: a cap for every job inside its model's range, and
// Σ cap×nodes ≤ budget unless every job already sits at its floor.
func checkAllocation(jobs []budget.Job, limit units.Power, caps []units.Power) error {
	if len(caps) != len(jobs) {
		return checkFailed("budgeter returned %d caps for %d jobs", len(caps), len(jobs))
	}
	var total float64
	allFloor := true
	for i, j := range jobs {
		c := caps[i]
		if math.IsNaN(c.Watts()) || c < j.Model.PMin-wattSlack || c > j.Model.PMax+wattSlack {
			return checkFailed("job %s cap %.3f W outside its model range [%.3f, %.3f] W",
				j.ID, c.Watts(), j.Model.PMin.Watts(), j.Model.PMax.Watts())
		}
		if c > j.Model.PMin+wattSlack {
			allFloor = false
		}
		total += c.Watts() * float64(j.Nodes)
	}
	if !allFloor && total > limit.Watts()+wattSlack*float64(len(jobs)+1) {
		return checkFailed("Σ cap×nodes = %.3f W exceeds the budget %.3f W", total, limit.Watts())
	}
	return nil
}

// checkAllJobsDone requires every submitted job to have completed exactly
// once.
func checkAllJobsDone(res sim.Result, submitted int) error {
	if res.Unfinished != 0 {
		return checkFailed("%d of %d jobs unfinished", res.Unfinished, submitted)
	}
	if len(res.Jobs) != submitted {
		return checkFailed("%d jobs completed, %d submitted", len(res.Jobs), submitted)
	}
	seen := make(map[string]bool, len(res.Jobs))
	for _, j := range res.Jobs {
		if seen[j.ID] {
			return checkFailed("job %s completed twice", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

// checkJobsAccounted requires every job admitted within the horizon to be
// either completed or counted unfinished.
func checkJobsAccounted(res sim.Result, admitted int) error {
	if got := len(res.Jobs) + res.Unfinished; got != admitted {
		return checkFailed("%d completed + %d unfinished ≠ %d admitted", len(res.Jobs), res.Unfinished, admitted)
	}
	return nil
}

// checkLedger holds a run's energy ledger to its double-entry identity in
// integer microjoules and to the run's own power integral.
func checkLedger(snap ledger.Snapshot, res sim.Result, nodes int) error {
	if snap.ConservationDeltaMicroJ != 0 || snap.JobsMicroJ+snap.IdleMicroJ != snap.TotalMicroJ {
		return checkFailed("ledger Σ jobs %d µJ + idle %d µJ ≠ total %d µJ",
			snap.JobsMicroJ, snap.IdleMicroJ, snap.TotalMicroJ)
	}
	if !snap.Conserved {
		return checkFailed("ledger reports %d accounting errors", snap.Errors)
	}
	var integral float64
	for _, p := range res.Tracking {
		integral += p.Measured.Watts()
	}
	tol := ledger.IntegralToleranceJ(nodes, float64(len(res.Tracking)))
	if d := snap.TotalJoules - integral; math.Abs(d) > tol {
		return checkFailed("ledger total %.3f J differs from the power integral %.3f J by more than %.3f J",
			snap.TotalJoules, integral, tol)
	}
	return nil
}

// checkFailover requires every recovered session to be adopted by the new
// controller generation, whose epoch is the previous one plus one.
func checkFailover(adopted, sessions int, prevEpoch, epoch uint64) error {
	if adopted != sessions {
		return checkFailed("%d of %d sessions adopted after failover", adopted, sessions)
	}
	if epoch != prevEpoch+1 {
		return checkFailed("controller epoch %d after failover from epoch %d", epoch, prevEpoch)
	}
	return nil
}

// capSeen is what one endpoint received during a control round.
type capSeen struct {
	count int
	epoch uint64
	capW  float64
	nodes int
	floor float64 // the job's believed model floor
}

// checkRound requires every endpoint to have received exactly one
// SetBudget stamped with the current epoch, and the caps to fit the job
// budget (target minus idle draw) unless every cap sits at its floor.
func checkRound(seen []capSeen, epoch uint64, jobBudget units.Power) error {
	var total float64
	allFloor := true
	for i, s := range seen {
		if s.count != 1 {
			return checkFailed("endpoint %d received %d SetBudgets in one round", i, s.count)
		}
		if s.epoch != epoch {
			return checkFailed("endpoint %d received epoch %d, want %d", i, s.epoch, epoch)
		}
		if s.capW > s.floor+wattSlack {
			allFloor = false
		}
		total += s.capW * float64(s.nodes)
	}
	if !allFloor && total > jobBudget.Watts()+wattSlack*float64(len(seen)+1) {
		return checkFailed("Σ cap×nodes = %.3f W exceeds target − idle draw = %.3f W", total, jobBudget.Watts())
	}
	return nil
}
