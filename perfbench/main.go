// Command perfbench is the repository benchmark. It runs one named
// workload through the FL stack's public entry points and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"run_s": {"value": 9.1, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured from
// untraced repetitions; with -trace 1 they are the per-layer metrics of
// one traced repetition. Every repetition runs in a fresh child process
// (this binary with -child), so one repetition's peak memory, heap and GC
// state cannot carry over into the next.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh -workload sim-lazy-20k -seed 1 -seconds 20 -trace 0
//
// See perfbench/README.md for the workloads, the metrics and how to read
// the traced output.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Workload names.
const (
	wlSimLazy = "sim-lazy-20k"
	wlFedBuff = "sim-fedbuff-paper"
	wlDist    = "dist-loopback"
)

var workloads = []string{wlSimLazy, wlFedBuff, wlDist}

const (
	// minReps is the fewest repetitions at distinct seeds an untraced run
	// makes. Repetition i runs at repSeed(seed, i), so the first minReps
	// repetitions are a fixed set of inputs per -seed: the quality metrics
	// average over exactly them, the timings take the median over every
	// repetition. An untraced sim run then repeats repetition 0 to check
	// that the engines are deterministic.
	minReps = 3
	// setupReps is how many times a repetition builds its workload; it
	// reports the median set-up time and runs the last build.
	setupReps = 5
	// tracedRefReps is the fewest untraced repetitions a traced run makes
	// at the seed itself, so determinism is checked on every traced run.
	tracedRefReps = 2
	// hardStop is when a run stops starting repetitions, whatever
	// -seconds asks for, so the whole run ends well inside three minutes.
	hardStop = 150 * time.Second
	// maxUnaccounted is the largest share of the traced engine wall time
	// the phase table may leave unattributed.
	maxUnaccounted = 0.05
)

// metric is one reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"updates_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"final_global_acc", "frac"},
}

// perLayer lists the per-layer metrics in report order.
func perLayer() []metric {
	var ms []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			ms = append(ms, metric{n, unit})
		}
	}
	for ph := phase(0); ph < numPhases; ph++ {
		add("s", "fl."+phaseNames[ph]+"_s")
	}
	add("frac", "fl.unaccounted_frac")
	add("count", "fl.client_rounds", "fl.train_jobs")
	add("s", "core.decide_s")
	add("count", "core.decide_calls")
	add("s", "core.feedback_s")
	add("count", "core.feedback_calls")
	add("s", "selection.select_s", "selection.observe_s")
	add("count", "population.shard_hits", "population.shard_misses", "population.shard_evictions")
	add("frac", "population.shard_hit_ratio")
	add("count", "population.shard_resident_peak", "population.device_misses", "population.device_resident_peak")
	add("ms", "data.derive_client_ms", "nn.evaluate_ms_per_client", "nn.train_ms_per_job")
	for _, k := range kernelNames {
		add("s", "tensor."+k+"_s")
		add("count", "tensor."+k+"_calls")
	}
	add("s", "tensor.kernel_s")
	add("GFLOP", "tensor.gflop")
	add("count", "checkpoint.snapshots")
	add("bytes", "checkpoint.bytes")
	add("s", "checkpoint.encode_s", "checkpoint.decode_s")
	add("s", "obs.export_s")
	add("bytes", "obs.metrics_bytes", "obs.timeline_bytes")
	for _, route := range []string{"task", "update"} {
		add("ms", "dist."+route+"_ms_p50", "dist."+route+"_ms_p99")
		add("count", "dist."+route+"_calls")
		add("bytes", "dist."+route+"_bytes")
	}
	add("frac", "dist.conflict_frac", "dist.no_slot_frac", "dist.server_busy_frac")
	add("count", "dist.aggregations", "dist.lease_expiries", "dist.partial_aggregations")
	add("MB", "runtime.alloc_mb")
	add("count", "runtime.gc_cycles")
	add("s", "runtime.gc_pause_s")
	add("frac", "trace.overhead_frac")
	add("frac", "quality.client_acc_bottom10", "quality.dropout_frac")
	return ms
}

// repResult is what one repetition reports to the parent.
type repResult struct {
	SetupS        float64   `json:"setup_s"`
	RunS          float64   `json:"run_s"`
	Updates       int       `json:"updates"`
	StepMs        []float64 `json:"step_ms"`
	GlobalAcc     float64   `json:"final_global_acc"`
	Bottom10      float64   `json:"client_acc_bottom10"`
	DropoutFrac   float64   `json:"dropout_frac"`
	Digest        string    `json:"digest,omitempty"`
	AccsDigest    string    `json:"accs_digest,omitempty"`
	Snapshots     int       `json:"snapshots"`
	SnapshotBytes int64     `json:"snapshot_bytes"`
	// Ops counts the operations attempted (engine runs, dist Steps) and
	// OpErrors those that failed; Checks counts output checks made.
	// Failed describes every failed operation and check.
	Ops      int      `json:"ops"`
	OpErrors int      `json:"op_errors"`
	Checks   int      `json:"checks"`
	Failed   []string `json:"failed,omitempty"`
	Layers   layerSet `json:"layers,omitempty"`

	peakRSSMB float64 // measured by the parent from the child's rusage
}

// check records one output check; a failed one is reported and counts as
// a failed operation.
func (r *repResult) check(ok bool, format string, args ...any) {
	r.Checks++
	if !ok {
		r.Failed = append(r.Failed, fmt.Sprintf(format, args...))
	}
}

// fail records a failed operation.
func (r *repResult) fail(format string, args ...any) {
	r.Failed = append(r.Failed, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, " | "))
	seed := fs.Int64("seed", 1, "workload seed; every data, device, agent and selector seed derives from it")
	seconds := fs.Int("seconds", 20, "how long to keep starting repetitions")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	child := fs.Bool("child", false, "run one repetition in this process and print its raw result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds ≥ 1 and -trace 0|1\n", strings.Join(workloads, " | "))
		return 2
	}
	if *child {
		return runChild(*workload, *seed, *traceMode == 1, stdout, stderr)
	}
	return runParent(*workload, *seed, time.Duration(*seconds)*time.Second, *traceMode == 1, stdout, stderr)
}

// runChild performs one repetition and prints its repResult as JSON.
func runChild(workload string, seed int64, traced bool, stdout, stderr io.Writer) int {
	var r *repResult
	var err error
	if workload == wlDist {
		r, err = runDist(seed, traced)
	} else {
		r, err = runSim(simSpecs[workload], seed, traced)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", workload, err)
		return 1
	}
	if traced && r.Layers != nil {
		r.Layers.runtimeStats()
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding the result: %v\n", err)
		return 1
	}
	return 0
}

// repSeed is the seed of a run's i-th untraced repetition; repetition 0
// runs at the seed itself.
func repSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// runner spawns repetitions as child processes.
type runner struct {
	exe      string
	workload string
	start    time.Time
	stderr   io.Writer
}

// rep runs one repetition at seed in a child process. A child that fails
// or prints no result yields an error.
func (rn *runner) rep(seed int64, traced bool) (*repResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	left := hardStop + 25*time.Second - wallNow().Sub(rn.start)
	ctx, cancel := context.WithTimeout(context.Background(), left)
	defer cancel()
	cmd := exec.CommandContext(ctx, rn.exe, "-child", "-workload", rn.workload,
		"-seed", fmt.Sprint(seed), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = rn.stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var r repResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &r, nil
}

// outcome accumulates the attempted/failed counts over a run.
type outcome struct {
	attempted, failed int
	problems          []string
}

func (o *outcome) add(r *repResult) {
	o.attempted += r.Ops + r.Checks
	o.failed += len(r.Failed)
	o.problems = append(o.problems, r.Failed...)
}

func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func runParent(workload string, seed int64, budget time.Duration, traced bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rn := &runner{exe: exe, workload: workload, start: wallNow(), stderr: stderr}
	var o outcome
	var reps []*repResult
	// Untraced repetitions: for end-to-end metrics until the budget is
	// spent, each at its own repSeed; for a traced run, for half the
	// budget at the seed itself, as the reference the traced repetition is
	// checked against. An untraced sim run keeps one repetition's time of
	// its budget for the repeat of repetition 0.
	want, spend := minReps, budget
	if traced {
		want, spend = tracedRefReps, budget/2
	}
	repeat := !traced && workload != wlDist
	var repTime time.Duration
	for {
		elapsed := wallNow().Sub(rn.start)
		reserve := time.Duration(0)
		if repeat && len(reps) > 0 {
			reserve = repTime / time.Duration(len(reps))
		}
		if elapsed > hardStop || (len(reps) >= want && elapsed+reserve >= spend) {
			break
		}
		s := seed
		if !traced {
			s = repSeed(seed, len(reps))
		}
		r0 := wallNow()
		r, err := rn.rep(s, false)
		if err != nil {
			o.check(false, "%v", err)
			break
		}
		repTime += wallNow().Sub(r0)
		o.add(r)
		reps = append(reps, r)
	}
	if repeat && len(reps) > 0 {
		// Its timings count like any other repetition's; its quality
		// equals repetition 0's, so the quality means leave it out.
		if r, err := rn.rep(repSeed(seed, 0), false); err != nil {
			o.check(false, "%v", err)
		} else {
			o.add(r)
			digests(&o, workload, []*repResult{reps[0], r})
			reps = append(reps, r)
		}
	}
	res := result{Metrics: map[string]metricValue{}}
	if len(reps) > 0 {
		if traced {
			digests(&o, workload, reps)
			tr, err := rn.rep(seed, true)
			if err != nil {
				o.check(false, "%v", err)
			} else {
				o.add(tr)
				layers(&res, &o, workload, reps, tr)
			}
		} else {
			endToEndMetrics(&res, workload, reps, stderr)
		}
	}
	reported := endToEnd
	if traced {
		reported = perLayer()
	}
	// The result carries exactly the listed metrics, with their units. A
	// traced run reports a layer its workload does not run as 0.
	out := make(map[string]metricValue, len(reported))
	for _, m := range reported {
		v, ok := res.Metrics[m.name]
		finite := !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0)
		o.check(finite && (ok || traced), "metric %s was not measured (%v)", m.name, v.Value)
		if !finite {
			v.Value = 0
		}
		out[m.name] = metricValue{Value: v.Value, Unit: m.unit}
	}
	res.Metrics = out
	for _, p := range o.problems {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", p)
	}
	res.Correct = o.failed == 0 && len(reps) > 0
	res.Attempted = max(o.attempted, 1)
	res.Failed = o.failed
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (res *result) set(name string, v float64) { res.Metrics[name] = metricValue{Value: v} }

// digests checks that every sim repetition at one seed produced the same
// final parameters and final client accuracies: the engines are
// deterministic for a fixed seed.
func digests(o *outcome, workload string, reps []*repResult) {
	if workload == wlDist {
		return
	}
	for _, r := range reps[1:] {
		o.check(r.Digest == reps[0].Digest, "repetitions disagree on the final params digest: %s vs %s",
			r.Digest, reps[0].Digest)
		o.check(r.AccsDigest == reps[0].AccsDigest, "repetitions disagree on the final client accuracies digest: %s vs %s",
			r.AccsDigest, reps[0].AccsDigest)
	}
}

// endToEndMetrics reduces the untraced repetitions to the end-to-end
// metrics: timings are medians over repetitions, step percentiles are
// over the steps of all repetitions pooled, and quality is the mean over
// the first minReps repetitions.
func endToEndMetrics(res *result, workload string, reps []*repResult, stderr io.Writer) {
	pick := func(f func(*repResult) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	res.set("setup_s", pick(func(r *repResult) float64 { return r.SetupS }))
	res.set("run_s", pick(func(r *repResult) float64 { return r.RunS }))
	res.set("updates_per_s", pick(func(r *repResult) float64 { return frac(float64(r.Updates), r.RunS) }))
	res.set("peak_rss_mb", pick(func(r *repResult) float64 { return r.peakRSSMB }))
	// Quality on the sims depends on the inputs alone: average it over the
	// fixed first minReps seeds so that it is a function of -seed. The dist
	// run is not deterministic, so it averages every repetition.
	quality := reps
	if workload != wlDist {
		quality = reps[:min(minReps, len(reps))]
	}
	mean := func(f func(*repResult) float64) float64 {
		var sum float64
		for _, r := range quality {
			sum += f(r)
		}
		return sum / float64(len(quality))
	}
	res.set("final_global_acc", mean(func(r *repResult) float64 { return r.GlobalAcc }))
	// These two spread across seeds by more than any bound could hold, so
	// they are printed, not reported (see README.md).
	fmt.Fprintf(stderr, "perfbench: %s: client_acc_bottom10 %.6g, dropout_frac %.6g (unbounded)\n", workload,
		mean(func(r *repResult) float64 { return r.Bottom10 }),
		mean(func(r *repResult) float64 { return r.DropoutFrac }))

	var steps []float64
	for _, r := range reps {
		steps = append(steps, r.StepMs...)
	}
	res.set("step_p50_ms", median(steps))
	// The step tail moves with machine load far more than any other timing
	// does, so it too is printed, not reported (see README.md).
	if idx, ok := tailRank(len(steps), 0.99); ok {
		fmt.Fprintf(stderr, "perfbench: %s: step_p99_ms %.6g (unbounded): the p%.1f of %d steps over %d repetitions\n",
			workload, sortedCopy(steps)[idx], 100*float64(idx+1)/float64(len(steps)), len(steps), len(reps))
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(stderr, "perfbench: %s: %-20s %.6g\n", workload, name, res.Metrics[name].Value)
	}
}

// layers reports the traced repetition's per-layer metrics and checks
// that tracing did not change what the program computed.
func layers(res *result, o *outcome, workload string, reps []*repResult, tr *repResult) {
	for name, v := range tr.Layers {
		res.set(name, v)
	}
	res.set("quality.client_acc_bottom10", tr.Bottom10)
	res.set("quality.dropout_frac", tr.DropoutFrac)
	if workload == wlDist {
		// The dist run has a fixed amount of work, so its overhead shows
		// in throughput.
		var rates []float64
		for _, r := range reps {
			rates = append(rates, frac(float64(r.Updates), r.RunS))
		}
		res.set("trace.overhead_frac", frac(median(rates), frac(float64(tr.Updates), tr.RunS))-1)
		return
	}
	var untraced []float64
	for _, r := range reps {
		untraced = append(untraced, r.RunS)
	}
	res.set("trace.overhead_frac", frac(tr.RunS, median(untraced))-1)

	ref := reps[0]
	o.check(tr.Digest == ref.Digest, "traced run's params digest %s differs from the untraced %s", tr.Digest, ref.Digest)
	o.check(tr.AccsDigest == ref.AccsDigest, "traced run's client accuracies digest %s differs from the untraced %s",
		tr.AccsDigest, ref.AccsDigest)
	// The snapshot fingerprint names the backend, which the traced run
	// renames, so each snapshot is longer by exactly the added prefix.
	renamed := int64(len(timedPrefix))
	o.check(tr.Snapshots == ref.Snapshots && tr.SnapshotBytes-int64(tr.Snapshots)*renamed == ref.SnapshotBytes,
		"traced run's checkpoints (%d, %d bytes) differ from the untraced (%d, %d bytes)",
		tr.Snapshots, tr.SnapshotBytes, ref.Snapshots, ref.SnapshotBytes)
	un := tr.Layers["fl.unaccounted_frac"]
	o.check(un <= maxUnaccounted, "fl.unaccounted_frac %.4f exceeds %.2f", un, maxUnaccounted)
}
