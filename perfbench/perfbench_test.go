package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"floatfl/internal/tensor"
)

func TestTailRankLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   int
		wantOK bool
	}{
		{n: 2300, q: 0.99, want: 2276, wantOK: true}, // the true p99 leaves 23 beyond
		{n: 1000, q: 0.99, want: 989, wantOK: true},  // p99 leaves exactly 10 beyond
		{n: 500, q: 0.99, want: 489, wantOK: true},   // capped: p99 would leave 5
		{n: 40, q: 0.99, want: 29, wantOK: true},     // capped to rank n-11
		{n: 11, q: 0.99, want: 0, wantOK: true},
		{n: 10, q: 0.99, wantOK: false}, // no rank leaves ten beyond
		{n: 0, q: 0.5, wantOK: false},
		{n: 100, q: 0.5, want: 49, wantOK: true}, // below the cap: the plain quantile
	}
	for _, c := range cases {
		got, ok := tailRank(c.n, c.q)
		if ok != c.wantOK || (ok && got != c.want) {
			t.Errorf("tailRank(%d, %v) = %d, %v; want %d, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
		if ok && c.n-1-got < minTail {
			t.Errorf("tailRank(%d, %v) = %d leaves %d samples beyond, want ≥ %d", c.n, c.q, got, c.n-1-got, minTail)
		}
	}
}

func TestTailPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: the helpers must sort a copy
	}
	if got, ok := tailPercentile(xs, 0.99); !ok || got != 90 {
		t.Errorf("tailPercentile = %v, %v; want 90 (ten samples above it)", got, ok)
	}
	if xs[0] != 100 {
		t.Errorf("tailPercentile reordered its input")
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd sample = %v, want 2", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestCutPhasesFollowsTheSyncHookOrder(t *testing.T) {
	evs := []event{
		{evStart, 0},
		{evSelectIn, ms(5)}, {evSelectOut, ms(6)}, // pre_round 5, select 1
		{evDecideIn, ms(8)}, {evDecideOut, ms(9)}, // dispatch 2+1
		{evDecideIn, ms(11)}, {evDecideOut, ms(12)}, // dispatch 2+1
		{evObserveIn, ms(40)}, {evObserveOut, ms(41)}, // train 28, collect 1
		{evFeedbackIn, ms(42)}, {evFeedbackOut, ms(43)}, {evLogClient, ms(44)}, // collect 1+1+1
		{evSummary, ms(54)},                             // aggregate 10
		{evTimelineIn, ms(55)}, {evTimelineOut, ms(56)}, // boundary 2
		{evBoundary, ms(57)}, // boundary 1
		{evReturn, ms(100)},  // final_eval 43
	}
	got, unaccounted := cutPhases(evs)
	want := map[phase]time.Duration{
		phPreRound: ms(5), phSelect: ms(1), phDispatch: ms(6), phTrain: ms(28),
		phCollect: ms(4), phAggregate: ms(10), phBoundary: ms(3), phFinalEval: ms(43),
	}
	for ph := phase(0); ph < numPhases; ph++ {
		if got[ph] != want[ph] {
			t.Errorf("%s = %v, want %v", phaseNames[ph], got[ph], want[ph])
		}
	}
	if unaccounted != 0 {
		t.Errorf("unaccounted = %v, want 0", unaccounted)
	}
}

func TestCutPhasesAsyncBarrierWithSnapshot(t *testing.T) {
	evs := []event{
		{evStart, 0},
		{evDecideIn, ms(3)}, {evDecideOut, ms(4)}, // pre_round 3, dispatch 1
		{evFeedbackIn, ms(20)}, {evFeedbackOut, ms(21)}, {evLogClient, ms(22)}, // train 16, collect 2
		{evBoundary, ms(30)},                    // aggregate 8
		{evSinkIn, ms(37)}, {evSinkOut, ms(38)}, // boundary 7+1
		{evDecideIn, ms(40)},  // dispatch 2
		{evDecideOut, ms(41)}, // dispatch 1
		{evFeedbackIn, ms(50)}, {evFeedbackOut, ms(51)}, {evLogClient, ms(52)},
		{evBoundary, ms(60)}, {evSinkIn, ms(66)}, {evSinkOut, ms(67)},
		{evReturn, ms(90)}, // final_eval 23
	}
	got, unaccounted := cutPhases(evs)
	if got[phDispatch] != ms(4) || got[phBoundary] != ms(15) || got[phFinalEval] != ms(23) {
		t.Errorf("dispatch %v boundary %v final_eval %v; want 4ms 15ms 23ms",
			got[phDispatch], got[phBoundary], got[phFinalEval])
	}
	if unaccounted != 0 {
		t.Errorf("unaccounted = %v, want 0", unaccounted)
	}
	if enc := sinkIntervals(evs); enc != ms(13) {
		t.Errorf("sinkIntervals = %v, want 13ms (7 + 6)", enc)
	}
}

func TestCutPhasesUnknownTransitionsAreUnaccounted(t *testing.T) {
	evs := []event{
		{evStart, 0},
		{evSelectIn, ms(2)},   // pre_round 2
		{evSummary, ms(10)},   // select→summary: not in the table
		{evDecideOut, ms(15)}, // summary→decide-out: not in the table
		{evReturn, ms(20)},    // decide-out→return: not in the table
	}
	got, unaccounted := cutPhases(evs)
	if unaccounted != ms(18) {
		t.Errorf("unaccounted = %v, want 18ms", unaccounted)
	}
	if got[phPreRound] != ms(2) {
		t.Errorf("pre_round = %v, want 2ms", got[phPreRound])
	}
}

func TestTimedBackendCountsFlopsFromShapes(t *testing.T) {
	b, err := timedBackendFor("ref")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "timed-ref" || b.Batched() != b.inner.Batched() {
		t.Fatalf("timed backend %q batched=%v does not mirror ref", b.Name(), b.Batched())
	}
	before := flopsByKernel(b)

	v := tensor.NewVector(5)
	w := tensor.NewVector(5)
	m := tensor.NewMatrix(3, 5)  // 3×5
	a := tensor.NewMatrix(2, 5)  // M=2, K=5
	nt := tensor.NewMatrix(2, 3) // a·mᵀ: 2×3
	nn := tensor.NewMatrix(2, 5) // nt·m: (2×3)·(3×5)
	tn := tensor.NewMatrix(3, 5) // ntᵀ·a: (3×2)·(2×5)
	probs, grad := tensor.NewVector(5), tensor.NewVector(5)
	out3 := tensor.NewVector(3)

	b.Dot(v, w)
	b.AddScaled(v, 2, w)
	b.ScaledDiff(v, 1, v, w)
	b.AddWeighted(v, []float64{0.5, 0.5}, []tensor.Vector{w, w})
	b.MatVec(m, out3, v)
	b.MatVecT(m, v, out3)
	b.AddOuterScaled(m, 1, out3, v)
	b.MatMulNT(nt, a, m)
	b.MatMulNN(nn, nt, m)
	b.AddMatMulTN(tn, nt, a)
	b.Softmax(probs, v)
	b.SoftmaxXent(probs, grad, v, 1)

	want := [numKernels]int64{
		kDot:            10,
		kAddScaled:      10,
		kScaledDiff:     10,
		kAddWeighted:    20,
		kMatVec:         30,
		kMatVecT:        30,
		kAddOuterScaled: 30,
		kMatMulNT:       2 * 2 * 3 * 5,
		kMatMulNN:       2 * 2 * 5 * 3,
		kAddMatMulTN:    2 * 3 * 5 * 2,
		kSoftmax:        15,
		kSoftmaxXent:    20,
	}
	after := flopsByKernel(b)
	for k := range want {
		if got := after[k] - before[k]; got != want[k] {
			t.Errorf("%s flops = %d, want %d", kernelNames[k], got, want[k])
		}
		if b.stats[k].calls.Load() == 0 {
			t.Errorf("%s call was not counted", kernelNames[k])
		}
	}
}

func flopsByKernel(b *timedBackend) [numKernels]int64 {
	var out [numKernels]int64
	for k := range out {
		out[k] = b.stats[k].flops.Load()
	}
	return out
}

// TestBenchmarkJSONMatchesTheMetrics keeps the committed BENCHMARK.json
// and the metrics this program reports in step.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer())
}
