package main

// Inputs generated from the seed: a PWA-style job trace and a node
// fail-stop/recovery schedule. Nothing is checked in or downloaded.

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/stats"
)

// traceShape fixes the make-up of a generated trace.
type traceShape struct {
	nodes   int
	util    float64       // target node utilization of the arrival stream
	horizon time.Duration // arrivals are submitted within [0, horizon)
}

// The job mix follows the repository's SDSC-SP2-modelled trace sample
// (internal/tracein/testdata/pwa_sdsc_sp2_sample.csv, 256 jobs), with
// widths carried on from its 128 to 512 nodes.

// traceWidths are the job widths, powers of two from 1 to 512 nodes. Each
// doubling is traceWidthDecay times as likely.
var traceWidths = func() (w []int) {
	for n := 1; n <= 512; n *= 2 {
		w = append(w, n)
	}
	return w
}()

// traceWidthDecay is the least-squares fit of log(count) against
// log2(width) over the sample's widths 1 to 128 (counts 53, 38, 39, 35,
// 32, 19, 18, 22).
const traceWidthDecay = 0.865

// traceDurations are the sample's duration menu, 30 s to 1 h, each
// weighted by how many of its 256 jobs have it.
var traceDurations = []struct{ seconds, weight float64 }{
	{30, 18}, {60, 41}, {120, 39}, {180, 15}, {300, 34}, {600, 19},
	{900, 14}, {1200, 24}, {1800, 17}, {2400, 19}, {3600, 16},
}

// meanNodeSeconds is the expected width × duration of one job.
func meanNodeSeconds() float64 {
	var ew, total, p float64 = 0, 0, 1
	for _, w := range traceWidths {
		ew += p * float64(w)
		total += p
		p *= traceWidthDecay
	}
	var ed, dsum float64
	for _, d := range traceDurations {
		ed += d.seconds * d.weight
		dsum += d.weight
	}
	return ew / total * ed / dsum
}

// writeTrace writes a CSV trace ("submit_s,job_id,nodes,duration_s") and
// returns how many jobs it holds. The job mix is fixed by shape: each
// (width, duration) class gets its expected share of the jobs that load
// the cluster to shape.util over the horizon. The seed shuffles the jobs
// and draws their submit times, uniform over the horizon. Fixing the mix
// keeps the work of a run nearly the same from seed to seed.
func writeTrace(path string, seed uint64, shape traceShape) (int, error) {
	total := shape.util * float64(shape.nodes) * shape.horizon.Seconds() / meanNodeSeconds()
	var wsum, dsum float64
	p := 1.0
	for range traceWidths {
		wsum += p
		p *= traceWidthDecay
	}
	for _, d := range traceDurations {
		dsum += d.weight
	}
	type job struct {
		nodes int
		dur   float64
	}
	var jobs []job
	p = 1
	for _, w := range traceWidths {
		for _, d := range traceDurations {
			n := int(math.Round(total * p / wsum * d.weight / dsum))
			for i := 0; i < n; i++ {
				jobs = append(jobs, job{nodes: w, dur: d.seconds})
			}
		}
		p *= traceWidthDecay
	}
	rng := stats.NewRNG(seed)
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	submit := make([]float64, len(jobs))
	for i := range submit {
		submit[i] = math.Floor(rng.Float64() * shape.horizon.Seconds())
	}
	sort.Float64s(submit)

	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "submit_s,job_id,nodes,duration_s")
	for i, j := range jobs {
		fmt.Fprintf(w, "%d,job-%06d,%d,%g\n", int64(submit[i]), i, j.nodes, j.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(jobs), f.Close()
}

// failureSchedule fails count distinct nodes at random times within the
// horizon; each recovers 5 to 30 minutes later.
func failureSchedule(seed uint64, nodes, count int, horizon time.Duration) ([]faults.NodeEvent, error) {
	rng := stats.NewRNG(seed ^ 0xfa11)
	used := map[int]bool{}
	var ev []faults.NodeEvent
	for len(used) < count {
		n := rng.Intn(nodes)
		if used[n] {
			continue
		}
		used[n] = true
		at := time.Duration(rng.Float64() * float64(horizon)).Truncate(time.Second)
		down := time.Duration(5+math.Floor(rng.Float64()*25)) * time.Minute
		ev = append(ev,
			faults.NodeEvent{At: at, Node: n, Kind: faults.KindFail},
			faults.NodeEvent{At: at + down, Node: n, Kind: faults.KindRecover})
	}
	faults.SortNodeSchedule(ev)
	return ev, faults.ValidateNodeSchedule(ev, nodes)
}
