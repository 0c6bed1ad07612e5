// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed host time, checks the program's outputs, and
// prints one JSON object as its last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload sim-sweep --seed 1 --seconds 20 --trace 0
//	perfbench --workload ctrl-fanout --seed 1 --seconds 20 --repeat 5
//
// --trace 0 reports the end-to-end metrics, measured with every layer
// probe off; --trace 1 reports the per-layer metrics from a run whose
// public seams are decorated with timers and counters. --repeat K runs the
// workload K times in child processes (seeds seed..seed+K-1) and prints
// each metric's median and quartiles. See README.md for the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts is what every workload receives.
type opts struct {
	seed    uint64
	seconds float64
	traced  bool
	// dir is a scratch directory for generated inputs, removed on exit.
	dir string
}

// outcome is what a workload measured. Round and set-up times are host
// seconds; the metric functions below turn them into the reported values.
type outcome struct {
	attempted, failed int
	// setup holds one sample per set-up: engine set-up summed over a
	// round's runs for the simulators, failover to caps flowing for the
	// controller.
	setup []float64
	// rounds holds the host time of each measured round.
	rounds []float64
	// rates holds each measured round's simulated seconds per host
	// second, set-up excluded; sim_speed is their median.
	rates []float64
	// allocBytes is the Go heap allocated during the measured rounds.
	allocBytes uint64
	// layers holds per-layer metrics (traced runs only).
	layers map[string]metric
}

var workloads = map[string]func(opts) (*outcome, error){
	"sim-sweep":   runSweep,
	"sim-trace":   runTrace,
	"ctrl-fanout": runCtrl,
}

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"sim_speed", "sim-s/s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"round_p50_ms", "ms"},
	{"round_p95_ms", "ms"},
}

// perLayer lists the per-layer metrics; a workload that does not run a
// layer reports it as 0.
var perLayer = []struct{ name, unit string }{
	{"sim.setup_ms", "ms"},
	{"sim.self_ms", "ms"},
	{"sim.steps", "count"},
	{"sim.jobs_done", "count"},
	{"sim.requeues", "count"},
	{"budget.calls", "count"},
	{"budget.jobs_per_call", "count"},
	{"budget.busy_ms", "ms"},
	{"tracein.rows", "count"},
	{"tracein.busy_ms", "ms"},
	{"dr.busy_ms", "ms"},
	{"sweep.busy_ratio", "ratio"},
	{"clustermgr.tick_ms", "ms"},
	{"clustermgr.self_ms", "ms"},
	{"clustermgr.absorb_ms", "ms"},
	{"proto.encode_us", "us"},
	{"proto.decode_us", "us"},
	{"proto.bytes_per_cap", "bytes"},
	{"proto.writes_per_cap", "count"},
	{"durable.replay_ms", "ms"},
	{"durable.wal_bytes_per_round", "bytes"},
	{"durable.syncs", "count"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
}

func main() {
	name := flag.String("workload", "", "workload: sim-sweep, sim-trace or ctrl-fanout")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "host seconds of measured rounds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a decorated run; 0 reports end-to-end metrics")
	repeat := flag.Int("repeat", 0, "run the workload this many times in child processes and print medians and quartiles")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := repeatMode(*name, *seed, *seconds, *traced, *repeat); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	dir, err := scratchRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: scratch directory:", err)
		os.Exit(1)
	}
	out, err := run(opts{seed: *seed, seconds: *seconds, traced: *traced == 1, dir: dir})
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		if errors.Is(err, errCheck) {
			// Wrong output: report it. A program error prints no result.
			line, _ := json.Marshal(report{Metrics: map[string]metric{}})
			fmt.Println(string(line))
		}
		os.Exit(1)
	}
	rep := report{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if *traced == 1 {
		for _, m := range perLayer {
			v := out.layers[m.name]
			rep.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
		}
	} else {
		vals := endToEndValues(out)
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func endToEndValues(o *outcome) map[string]float64 {
	return map[string]float64{
		"setup_s":      median(o.setup),
		"sim_speed":    median(o.rates),
		"alloc_mb":     float64(o.allocBytes) / 1e6 / float64(len(o.rounds)),
		"peak_rss_mb":  peakRSSMB(),
		"round_p50_ms": percentile(o.rounds, 50) * 1e3,
		"round_p95_ms": percentile(o.rounds, 95) * 1e3,
	}
}

// median returns the middle of xs (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(p/100*float64(len(s)) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSample is a runtime.MemStats reading taken around measured rounds.
type memSample struct {
	alloc   uint64
	numGC   uint32
	pauseNs uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{alloc: ms.TotalAlloc, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// gcLayers adds the Go runtime's per-round GC figures to a traced report.
func gcLayers(layers map[string]metric, before, after memSample, rounds int) {
	layers["gc.cycles"] = metric{Value: float64(after.numGC-before.numGC) / float64(rounds)}
	layers["gc.pause_ms"] = metric{Value: float64(after.pauseNs-before.pauseNs) / 1e6 / float64(rounds)}
}

// deadline returns when the measured rounds of a run must stop starting.
func deadline(o opts) time.Time {
	return time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
}

// repeatMode runs the workload k times in child processes and prints each
// metric's median and quartiles over the runs.
func repeatMode(name string, seed uint64, seconds float64, traced, k int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		args := []string{"--workload", name, "--seed", fmt.Sprint(seed + uint64(i)),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced)}
		rep, err := runChild(exe, args)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		fmt.Printf("run %d seed %d: attempted %d failed %d\n", i+1, seed+uint64(i), rep.Attempted, rep.Failed)
		for n, m := range rep.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
	}
	var names []string
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %-8s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "iqr/med")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-28s %-8s %14.6g %14.6g %14.6g %8.4f\n", n, units[n], q1, med, q3, spread)
	}
	return nil
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (exclusive
// method), the rule the benchmark's spread is judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func runChild(exe string, args []string) (report, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("result line: %w", err)
	}
	if !rep.Correct {
		return rep, fmt.Errorf("outputs incorrect")
	}
	return rep, nil
}

// scratchRoot makes the run's scratch directory under .bench_build in the
// working directory, the checkout the benchmark runs from.
func scratchRoot() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// scratch returns a fresh subdirectory of the run's scratch directory.
func scratch(o opts, name string) (string, error) {
	d := filepath.Join(o.dir, name)
	return d, os.MkdirAll(d, 0o755)
}
