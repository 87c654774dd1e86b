package fl

import (
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/metrics"
	"floatfl/internal/nn"
	"floatfl/internal/population"
	"floatfl/internal/trace"
)

// eagerPop wraps device clients with empty data shards: enough for the
// population's response-time statistics.
func eagerPop(t *testing.T, clients []*device.Client) *population.Population {
	t.Helper()
	p, err := population.WrapEager(&data.Federation{Train: make([][]nn.Sample, len(clients))}, clients)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAutoDeadlineEmptyPopulation pins the degenerate fallback: no clients
// means no estimates, which must yield the 60-second default rather than a
// zero (or NaN) deadline that would drop every round.
func TestAutoDeadlineEmptyPopulation(t *testing.T) {
	w := device.WorkSpec{RefFLOPsPerSample: 1e6, RefParams: 2e5, Samples: 32, Epochs: 2}
	if got := deadlineFromEstimates(eagerPop(t, nil).CleanResponseEstimates(w), 90); got != 60 {
		t.Fatalf("auto deadline of an empty population = %v, want 60", got)
	}
}

// TestDeadlineFromEstimatesDegenerate covers the shared percentile-and-
// slack rule behind both the eager and lazy deadline paths.
func TestDeadlineFromEstimatesDegenerate(t *testing.T) {
	if got := deadlineFromEstimates(nil, 90); got != 60 {
		t.Fatalf("no estimates: %v, want 60", got)
	}
	if got := deadlineFromEstimates([]float64{0, 0, 0}, 90); got != 60 {
		t.Fatalf("all-zero estimates: %v, want 60", got)
	}
	if got, want := deadlineFromEstimates([]float64{10}, 50), 15.0; got != want {
		t.Fatalf("single estimate: %v, want %v", got, want)
	}
}

// TestAutoDeadlineExactWithinCap: populations at or under the statistics
// sample cap are measured exactly — the deadline is the full-scan
// percentile of every client's clean estimate.
func TestAutoDeadlineExactWithinCap(t *testing.T) {
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: 50, Scenario: trace.ScenarioStatic, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := device.WorkSpec{RefFLOPsPerSample: 2e6, RefParams: 2e5, Samples: 48, Epochs: 2}
	ests := make([]float64, len(pop))
	for i, c := range pop {
		ests[i] = device.EstimateCleanResponseSeconds(c, w)
	}
	want := metrics.Percentile(ests, 90) * 1.5
	if got := deadlineFromEstimates(eagerPop(t, pop).CleanResponseEstimates(w), 90); got != want {
		t.Fatalf("auto deadline (n=50) = %v, want full-scan %v", got, want)
	}
}

// TestAutoDeadlineSampledOverCap: above the population's statistics sample
// cap (1024 by default), the deadline must equal the deterministic strided
// sample's (not the full scan's), and land inside the full population's
// estimate envelope.
func TestAutoDeadlineSampledOverCap(t *testing.T) {
	const sampleCap = 1024
	const n = sampleCap + 1000
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: n, Scenario: trace.ScenarioStatic, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := device.WorkSpec{RefFLOPsPerSample: 2e6, RefParams: 2e5, Samples: 48, Epochs: 2}
	ests := make([]float64, 0, sampleCap)
	for i := 0; i < sampleCap; i++ {
		ests = append(ests, device.EstimateCleanResponseSeconds(pop[i*n/sampleCap], w))
	}
	want := deadlineFromEstimates(ests, 90)
	got := deadlineFromEstimates(eagerPop(t, pop).CleanResponseEstimates(w), 90)
	if got != want {
		t.Fatalf("auto deadline (n=%d) = %v, want strided-sample %v", n, got, want)
	}
	lo, hi := ests[0], ests[0]
	for _, c := range pop {
		e := device.EstimateCleanResponseSeconds(c, w)
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	if got < lo || got > hi*1.5 {
		t.Fatalf("sampled deadline %v outside population envelope [%v, %v]", got, lo, hi*1.5)
	}
}

// TestPopulationMeanShardSizeDegenerate: an empty eager population's mean
// shard size is floored at 1, which workSpecFor treats as one sample.
func TestPopulationMeanShardSizeDegenerate(t *testing.T) {
	p, err := population.WrapEager(&data.Federation{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.MeanShardSize(); got != 1 {
		t.Fatalf("empty eager population mean shard size %d, want 1", got)
	}
}
