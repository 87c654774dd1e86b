package population

import (
	"reflect"
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/nn"
	"floatfl/internal/trace"
)

func testConfig(clients, statSample int) Config {
	return Config{
		Dataset:      "femnist",
		Clients:      clients,
		Seed:         13,
		Scenario:     trace.ScenarioDynamic,
		CacheClients: 4,
		StatSample:   statSample,
	}
}

// backings returns the same client universe held both ways: derived on
// demand, and eagerly wrapped from a materialization of an identical lazy
// population.
func backings(t *testing.T, cfg Config) map[string]*Population {
	t.Helper()
	lazy, err := NewLazy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewLazy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := WrapEager(ref.Materialize())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Population{"lazy": lazy, "eager": eager}
}

// TestBackingsAgree: a lazy population and the eager wrapping of its
// materialization expose the same clients, shards and statistics.
func TestBackingsAgree(t *testing.T) {
	const n = 40
	ps := backings(t, testConfig(n, 0))
	lazy, eager := ps["lazy"], ps["eager"]
	if lazy.Eager() || !eager.Eager() {
		t.Fatal("backings are not the kinds the table names")
	}
	if lazy.NumClients() != n || eager.NumClients() != n {
		t.Fatalf("NumClients lazy=%d eager=%d, want %d", lazy.NumClients(), eager.NumClients(), n)
	}
	for id := 0; id < n; id++ {
		lc, ec := lazy.Client(id), eager.Client(id)
		if lc.ID != id || ec.ID != id {
			t.Fatalf("client %d: IDs lazy=%d eager=%d", id, lc.ID, ec.ID)
		}
		for round := 0; round < 5; round++ {
			if lr, er := lc.ResourcesAt(round), ec.ResourcesAt(round); lr != er {
				t.Fatalf("client %d round %d: resources differ\n lazy=%+v\neager=%+v", id, round, lr, er)
			}
		}
		ls, es := lazy.Shard(id), eager.Shard(id)
		if !reflect.DeepEqual(ls, es) {
			t.Fatalf("client %d: shards differ", id)
		}
	}
	if lm, em := lazy.MeanShardSize(), eager.MeanShardSize(); lm != em {
		t.Fatalf("MeanShardSize lazy=%d eager=%d", lm, em)
	}
	w := device.WorkSpec{RefFLOPsPerSample: 2e6, RefParams: 2e5, Samples: 48, Epochs: 2}
	le, ee := lazy.CleanResponseEstimates(w), eager.CleanResponseEstimates(w)
	if len(le) != n || !reflect.DeepEqual(le, ee) {
		t.Fatalf("CleanResponseEstimates differ (len lazy=%d eager=%d)", len(le), len(ee))
	}
}

// TestStatisticsSampleIsStrided: above StatSample, both statistics read
// the same evenly spaced clients on either backing.
func TestStatisticsSampleIsStrided(t *testing.T) {
	const n, sample = 50, 8
	w := device.WorkSpec{RefFLOPsPerSample: 2e6, RefParams: 2e5, Samples: 48, Epochs: 2}
	lazy, err := NewLazy(testConfig(n, sample))
	if err != nil {
		t.Fatal(err)
	}
	ests := lazy.CleanResponseEstimates(w)
	if len(ests) != sample {
		t.Fatalf("%d estimates, want %d", len(ests), sample)
	}
	total := 0
	for i := 0; i < sample; i++ {
		id := i * n / sample
		if want := device.EstimateCleanResponseSeconds(lazy.Client(id), w); ests[i] != want {
			t.Fatalf("estimate %d = %v, want client %d's %v", i, ests[i], id, want)
		}
		total += len(lazy.Shard(id).Train)
	}
	if got, want := lazy.MeanShardSize(), total/sample; got != want {
		t.Fatalf("MeanShardSize = %d, want strided mean %d", got, want)
	}
}

// TestMeanShardSize pins the floor-at-1 guards and the exact mean of a
// small eager federation.
func TestMeanShardSize(t *testing.T) {
	clients := func(n int) []*device.Client {
		cs := make([]*device.Client, n)
		for i := range cs {
			cs[i] = &device.Client{ID: i}
		}
		return cs
	}
	cases := []struct {
		name  string
		sizes []int
		want  int
	}{
		{"no clients", nil, 1},
		{"all-empty shards", []int{0, 0}, 1},
		{"mean", []int{10, 20}, 15},
	}
	for _, tc := range cases {
		fed := &data.Federation{}
		for _, size := range tc.sizes {
			fed.Train = append(fed.Train, make([]nn.Sample, size))
		}
		p, err := WrapEager(fed, clients(len(tc.sizes)))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.MeanShardSize(); got != tc.want {
			t.Fatalf("%s: MeanShardSize = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestMeanShardSizeSampled: exact within the sample cap, sampled and
// positive beyond it, stable across calls, and near the exact value.
func TestMeanShardSizeSampled(t *testing.T) {
	exactPop, err := NewLazy(testConfig(200, 200))
	if err != nil {
		t.Fatal(err)
	}
	sampledPop, err := NewLazy(testConfig(200, 32))
	if err != nil {
		t.Fatal(err)
	}
	exact := exactPop.MeanShardSize()
	if exact <= 0 {
		t.Fatalf("exact mean shard size %d, want positive", exact)
	}
	sampled := sampledPop.MeanShardSize()
	if sampled <= 0 {
		t.Fatalf("sampled mean shard size %d, want positive", sampled)
	}
	if again := sampledPop.MeanShardSize(); again != sampled {
		t.Fatalf("sampled mean not deterministic: %d then %d", sampled, again)
	}
	// The lognormal volume distribution concentrates near the profile mean;
	// a 32-client stride sample must land in the same ballpark.
	if sampled < exact/2 || sampled > exact*2 {
		t.Fatalf("sampled mean %d implausibly far from exact %d", sampled, exact)
	}
}

// TestRestoreDrainLogsRejectsOutOfRange: a state naming a client outside
// the population is rejected on either backing, and no client's trace —
// not even one listed before the bad entry — is touched.
func TestRestoreDrainLogsRejectsOutOfRange(t *testing.T) {
	const n = 12
	for name, p := range backings(t, testConfig(n, 0)) {
		for _, bad := range []int{n, -1} {
			st := &State{DrainLogs: []ClientDrainLog{
				{Client: 2, Drains: []trace.DrainEvent{{Step: 0, Frac: 0.5}}},
				{Client: bad, Drains: []trace.DrainEvent{{Step: 1, Frac: 0.25}}},
			}}
			if err := p.RestoreDrainLogs(st); err == nil {
				t.Fatalf("%s: drain log for client %d accepted", name, bad)
			}
			// CheckpointState reads the drain logs without deriving any
			// client, so the population stays fresh for the restore below.
			after, err := p.CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			if len(after.DrainLogs) != 0 {
				t.Fatalf("%s: rejected restore left drain logs %+v", name, after.DrainLogs)
			}
		}
		// The rejected attempts left the population fresh: a valid state
		// still installs.
		good := &State{DrainLogs: []ClientDrainLog{{Client: 2, Drains: []trace.DrainEvent{{Step: 0, Frac: 0.5}}}}}
		if err := p.RestoreDrainLogs(good); err != nil {
			t.Fatalf("%s: valid restore after rejections: %v", name, err)
		}
	}
}
