package fl

import (
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"floatfl/internal/population"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// popScaleEnv gates the million-client test: it allocates hundreds of MB
// and runs for tens of seconds, so plain `go test ./...` skips it.
//
//	FLOAT_POP_SCALE=1 go test ./internal/fl -run TestMillionClientBoundedMemory -v
//
// FLOAT_POP_CLIENTS / FLOAT_POP_PER_ROUND override the scale (CI runs a
// reduced configuration); FLOAT_POP_BENCH_OUT, when set, writes the
// BENCH_population.json artifact to that path.
const popScaleEnv = "FLOAT_POP_SCALE"

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// populationBenchArtifact is the BENCH_population.json schema: the lazy
// population's startup cost, steady-state round cost, and the resident
// footprint per population client — the numbers that justify "round cost
// is O(selected), not O(population)".
type populationBenchArtifact struct {
	Schema           string  `json:"schema"`
	GoVersion        string  `json:"go_version"`
	Clients          int     `json:"clients"`
	PerRound         int     `json:"per_round"`
	CacheClients     int     `json:"cache_clients"`
	Rounds           int     `json:"rounds"`
	StartupSec       float64 `json:"startup_sec"`
	RoundSec         float64 `json:"round_sec"`
	HeapAllocBytes   uint64  `json:"heap_alloc_bytes"`
	BytesPerClient   float64 `json:"bytes_per_client"`
	ShardPeak        int     `json:"shard_resident_peak"`
	DevicePeak       int     `json:"device_resident_peak"`
	ResidencyCeiling int     `json:"residency_ceiling"`
}

// TestMillionClientBoundedMemory is the tentpole's scale acceptance test:
// a million-client lazy population must start up in O(1), run rounds whose
// resident working set never exceeds cache capacity + the selected set,
// and keep total heap a small constant per population client (an eager
// population at this scale would need tens of GB).
func TestMillionClientBoundedMemory(t *testing.T) {
	if os.Getenv(popScaleEnv) == "" {
		t.Skipf("set %s=1 to run the million-client scale test", popScaleEnv)
	}
	clients := envInt("FLOAT_POP_CLIENTS", 1_000_000)
	perRound := envInt("FLOAT_POP_PER_ROUND", 10_000)
	const cacheClients = 4096
	const rounds = 2

	start := time.Now()
	p, err := population.NewLazy(population.Config{
		Dataset:      "femnist",
		Clients:      clients,
		Alpha:        0.1,
		Seed:         42,
		Scenario:     trace.ScenarioDynamic,
		CacheClients: cacheClients,
	})
	if err != nil {
		t.Fatal(err)
	}
	startupSec := time.Since(start).Seconds()
	t.Logf("startup: %.3fs for %d clients", startupSec, clients)

	cfg := Config{
		Arch:            "mlp-small",
		Rounds:          rounds,
		ClientsPerRound: perRound,
		Epochs:          1,
		BatchSize:       16,
		LR:              0.1,
		EvalEvery:       rounds,
		Seed:            42,
		EvalClients:     256,
	}
	runStart := time.Now()
	res, err := RunSyncPop(p, selection.NewRandom(42), NoOpController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	roundSec := time.Since(runStart).Seconds() / rounds
	t.Logf("round: %.3fs avg over %d rounds (%d selected/round)", roundSec, rounds, perRound)

	if res.Ledger.TotalRounds == 0 {
		t.Fatal("no client-rounds executed")
	}

	// The acceptance bound: resident client state never exceeded the cache
	// capacity plus one round's pinned selection.
	ceiling := cacheClients + perRound
	shard, dev := p.Stats()
	if shard.Peak > ceiling {
		t.Errorf("shard cache peak residency %d exceeds ceiling %d (cache %d + selected %d)",
			shard.Peak, ceiling, cacheClients, perRound)
	}
	if dev.Peak > ceiling {
		t.Errorf("device cache peak residency %d exceeds ceiling %d (cache %d + selected %d)",
			dev.Peak, ceiling, cacheClients, perRound)
	}
	if shard.Evictions == 0 && shard.Misses > int64(2*cacheClients) {
		t.Error("shard cache never evicted despite deriving past capacity — residency bound untested")
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytesPerClient := float64(ms.HeapAlloc) / float64(clients)
	t.Logf("heap after run: %.1f MB (%.1f bytes per population client; peaks shard=%d device=%d)",
		float64(ms.HeapAlloc)/(1<<20), bytesPerClient, shard.Peak, dev.Peak)
	// An eager femnist client costs tens of KB (samples + traces). The
	// lazy run must stay orders of magnitude below that per *population*
	// client at the full 1M scale; the reduced CI scale gets a looser
	// bound since the fixed costs (model, pools, goldens) dominate.
	maxBytesPerClient := 2048.0
	if clients < 500_000 {
		maxBytesPerClient = 65536
	}
	if bytesPerClient > maxBytesPerClient {
		t.Errorf("resident heap %.0f bytes per population client exceeds %.0f — population memory is not bounded",
			bytesPerClient, maxBytesPerClient)
	}

	if out := os.Getenv("FLOAT_POP_BENCH_OUT"); out != "" {
		art := populationBenchArtifact{
			Schema:           "floatfl-population-bench/v1",
			GoVersion:        runtime.Version(),
			Clients:          clients,
			PerRound:         perRound,
			CacheClients:     cacheClients,
			Rounds:           rounds,
			StartupSec:       startupSec,
			RoundSec:         roundSec,
			HeapAllocBytes:   ms.HeapAlloc,
			BytesPerClient:   bytesPerClient,
			ShardPeak:        shard.Peak,
			DevicePeak:       dev.Peak,
			ResidencyCeiling: ceiling,
		}
		blob, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", out)
	}
}
