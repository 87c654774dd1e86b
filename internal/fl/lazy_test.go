package fl

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"floatfl/internal/obs"
	"floatfl/internal/population"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// lazyPopConfig is the small-scale lazy population every equivalence test
// uses: large enough to exercise selection and dropouts, small enough to
// materialize for the eager reference, with a cache far smaller than the
// population so eviction/re-derivation is constantly exercised.
func lazyPopConfig(clients int) population.Config {
	return population.Config{
		Dataset:      "femnist",
		Clients:      clients,
		Alpha:        0.1,
		Seed:         29,
		Scenario:     trace.ScenarioDynamic,
		CacheClients: 4,
	}
}

// lazyEagerPair builds a lazy population and an eager population backed by
// its materialization — the same client universe held two different ways.
func lazyEagerPair(t *testing.T, clients int) (lazy, eager *population.Population) {
	t.Helper()
	lazy, err := population.NewLazy(lazyPopConfig(clients))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := population.NewLazy(lazyPopConfig(clients))
	if err != nil {
		t.Fatal(err)
	}
	fed, pop := ref.Materialize()
	eager, err = population.WrapEager(fed, pop)
	if err != nil {
		t.Fatal(err)
	}
	return lazy, eager
}

// assertLazyEagerIdentical requires bit-for-bit equality of everything the
// two runs report, the ledger's full checkpoint state included.
func assertLazyEagerIdentical(t *testing.T, label string, lazyRes, eagerRes *Result) {
	t.Helper()
	if !reflect.DeepEqual(lazyRes.FinalParams, eagerRes.FinalParams) {
		t.Errorf("%s: FinalParams differ — lazy derivation is not bit-identical to eager state", label)
	}
	if !reflect.DeepEqual(lazyRes.GlobalAccHistory, eagerRes.GlobalAccHistory) {
		t.Errorf("%s: GlobalAccHistory differs:\n  lazy=%v\n  eager=%v", label, lazyRes.GlobalAccHistory, eagerRes.GlobalAccHistory)
	}
	if !reflect.DeepEqual(lazyRes.FinalClientAccs, eagerRes.FinalClientAccs) {
		t.Errorf("%s: FinalClientAccs differ", label)
	}
	if lazyRes.FinalGlobalAcc != eagerRes.FinalGlobalAcc {
		t.Errorf("%s: FinalGlobalAcc %v vs %v", label, lazyRes.FinalGlobalAcc, eagerRes.FinalGlobalAcc)
	}
	if lazyRes.WallClockSeconds != eagerRes.WallClockSeconds {
		t.Errorf("%s: WallClockSeconds %v vs %v", label, lazyRes.WallClockSeconds, eagerRes.WallClockSeconds)
	}
	if lazyRes.DeadlineSec != eagerRes.DeadlineSec {
		t.Errorf("%s: DeadlineSec %v vs %v", label, lazyRes.DeadlineSec, eagerRes.DeadlineSec)
	}
	if ls, es := lazyRes.Ledger.CheckpointState(), eagerRes.Ledger.CheckpointState(); !reflect.DeepEqual(ls, es) {
		t.Errorf("%s: ledgers differ:\n  lazy=%+v\n  eager=%+v", label, ls, es)
	}
}

// TestRunSyncLazyMatchesEager is the tentpole acceptance test: a lazy run
// (tiny cache, constant eviction and re-derivation) must produce the same
// bits as an eager run over the materialized population — final
// parameters, accuracy trajectories, wall clock, per-client ledger, and
// the JSONL run log — for every selector.
func TestRunSyncLazyMatchesEager(t *testing.T) {
	for _, selName := range []string{"random", "oort", "refl"} {
		t.Run(selName, func(t *testing.T) {
			newSel := func() selection.Selector {
				switch selName {
				case "oort":
					return selection.NewOort(selection.OortConfig{Seed: 7})
				case "refl":
					return selection.NewREFL(selection.REFLConfig{Seed: 7})
				}
				return selection.NewRandom(7)
			}
			run := func(p *population.Population) (*Result, string) {
				var buf bytes.Buffer
				cfg := parSyncConfig(4)
				cfg.Logger = NewJSONLLogger(&buf)
				res, err := RunSyncPop(p, newSel(), newFeedbackDriven(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res, buf.String()
			}
			lazy, eager := lazyEagerPair(t, 48)
			lazyRes, lazyLog := run(lazy)
			eagerRes, eagerLog := run(eager)
			assertLazyEagerIdentical(t, "sync "+selName, lazyRes, eagerRes)
			if lazyLog != eagerLog {
				t.Errorf("JSONL logs differ (%d vs %d bytes)", len(lazyLog), len(eagerLog))
			}
		})
	}
}

// TestRunAsyncLazyMatchesEager mirrors the sync equivalence for the
// FedBuff engine: both runs share the probe-budgeted permutation launcher
// and the event schedule, and must agree bit-for-bit.
func TestRunAsyncLazyMatchesEager(t *testing.T) {
	run := func(p *population.Population) (*Result, string) {
		var buf bytes.Buffer
		cfg := parSyncConfig(4)
		cfg.Rounds = 5
		cfg.Concurrency = 12
		cfg.BufferK = 4
		cfg.Logger = NewJSONLLogger(&buf)
		res, err := RunAsyncPop(p, newFeedbackDriven(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, buf.String()
	}
	lazy, eager := lazyEagerPair(t, 48)
	lazyRes, lazyLog := run(lazy)
	eagerRes, eagerLog := run(eager)
	assertLazyEagerIdentical(t, "async", lazyRes, eagerRes)
	if lazyLog != eagerLog {
		t.Errorf("JSONL logs differ (%d vs %d bytes)", len(lazyLog), len(eagerLog))
	}
}

// TestLazyTelemetryParallelismInvariant extends the determinism contract
// to the population-cache metrics: a lazy run's full exposition — engine
// counters plus pop_cache_* series — must be byte-identical across
// Parallelism, because cache traffic happens only on the single-threaded
// passes and is flushed at schedule-determined points.
func TestLazyTelemetryParallelismInvariant(t *testing.T) {
	run := func(par int) string {
		p, err := population.NewLazy(lazyPopConfig(48))
		if err != nil {
			t.Fatal(err)
		}
		cfg := parSyncConfig(par)
		cfg.Metrics = obs.NewRegistry()
		p.Instrument(cfg.Metrics)
		if _, err := RunSyncPop(p, selection.NewRandom(7), newFeedbackDriven(), cfg); err != nil {
			t.Fatal(err)
		}
		var mb bytes.Buffer
		if err := cfg.Metrics.WriteText(&mb); err != nil {
			t.Fatal(err)
		}
		return mb.String()
	}
	m1, m8 := run(1), run(8)
	if m1 != m8 {
		t.Errorf("lazy metrics exposition differs between P=1 and P=8:\n--- P=1 ---\n%s--- P=8 ---\n%s", m1, m8)
	}
	for _, series := range []string{
		`pop_cache_hits_total{kind="shard"}`,
		`pop_cache_misses_total{kind="device"}`,
		`pop_cache_evictions_total{kind="shard"}`,
		`pop_resident_clients{kind="device"}`,
		`pop_derive_samples_count`,
	} {
		if !strings.Contains(m1, series) {
			t.Errorf("exposition missing %s:\n%s", series, m1)
		}
	}
	// A 4-client cache under a 48-client population must actually evict —
	// a zero counter would mean the run never thrashed the cache and the
	// byte-equality above proved nothing about eviction accounting.
	if strings.Contains(m1, `pop_cache_evictions_total{kind="shard"} 0`+"\n") {
		t.Errorf("shard cache never evicted; exposition:\n%s", m1)
	}
}
