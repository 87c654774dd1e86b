// Package population unifies the two ways a federation's client state can
// be held: eagerly (the classic *data.Federation + []*device.Client pair,
// everything resident) or lazily (data/device Providers deriving client i
// from (seed, clientID) on demand, with only a bounded LRU working set
// resident). The fl engines run against this seam, so a round costs
// O(selected) — not O(population) — memory when the population is lazy.
// The two backings differ only in how client state is stored: selection,
// launch, statistics and the ledger take one path for both, so a lazy
// population and the eager wrapping of its materialization run
// bit-identically.
//
// Ownership contract: the engines touch a Population only from their
// single-threaded dispatch/collect passes. Dispatch Acquires (derive +
// pin) every selected client before fan-out; workers receive the resolved
// *device.Client and sample slices in their job structs and never touch
// the cache; collect Releases the pins. Cache hit/miss/eviction counters
// are therefore a pure function of the schedule and byte-reproducible
// across any Parallelism.
package population

import (
	"fmt"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/trace"
	"floatfl/internal/wset"
)

// Config parameterizes a lazy population.
type Config struct {
	// Dataset names the data profile (femnist | cifar10 | ...).
	Dataset string
	Clients int
	// Alpha is the Dirichlet concentration (≤ 0 defaults to 0.1).
	Alpha float64
	// LocalTestFraction defaults to 0.25.
	LocalTestFraction float64
	Seed              int64
	Scenario          trace.Scenario
	// FiveGShare defaults to 0.3.
	FiveGShare float64
	// CacheClients bounds each working-set cache's unpinned residency
	// (≤ 0 defaults to 4096).
	CacheClients int
	// StatSample caps the deterministic strided sample behind population
	// statistics — mean shard size, auto-deadline estimates (≤ 0 defaults
	// to defaultStatSample).
	StatSample int
}

// defaultStatSample is the statistics sample cap when Config.StatSample is
// unset, and always for eager populations: statistics are exact for any
// population of at most this many clients.
const defaultStatSample = 1024

// Population is the engines' view of a federation's client state.
type Population struct {
	n          int
	statSample int

	// Eager backing (nil in lazy mode).
	fed     *data.Federation
	clients []*device.Client

	// Lazy backing (nil in eager mode).
	dataP *data.Provider
	devP  *device.Provider

	// Telemetry handles (nil-safe when not instrumented).
	shardHits, shardMisses, shardEvictions *obs.Counter
	devHits, devMisses, devEvictions       *obs.Counter
	shardResident, devResident             *obs.Gauge
	shardPeak, devPeak                     *obs.Gauge
	deriveSamples                          *obs.Histogram
	lastShard, lastDev                     wset.Stats
}

// WrapEager adapts the classic dense pair into a Population: shards and
// clients are returned by direct index, acquire/release are no-ops.
func WrapEager(fed *data.Federation, clients []*device.Client) (*Population, error) {
	if fed == nil {
		return nil, fmt.Errorf("population: nil federation")
	}
	if len(fed.Train) != len(clients) {
		return nil, fmt.Errorf("fl: federation has %d clients, population has %d",
			len(fed.Train), len(clients))
	}
	return &Population{n: len(clients), statSample: defaultStatSample, fed: fed, clients: clients}, nil
}

// NewLazy constructs a provider-backed population deriving client state on
// demand.
func NewLazy(cfg Config) (*Population, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("population: needs positive client count, got %d", cfg.Clients)
	}
	if cfg.StatSample <= 0 {
		cfg.StatSample = defaultStatSample
	}
	dataP, err := data.NewProvider(cfg.Dataset, data.GenerateConfig{
		Clients:           cfg.Clients,
		Alpha:             cfg.Alpha,
		Seed:              cfg.Seed,
		LocalTestFraction: cfg.LocalTestFraction,
	}, cfg.CacheClients)
	if err != nil {
		return nil, err
	}
	devP, err := device.NewProvider(device.PopulationConfig{
		Clients:    cfg.Clients,
		Scenario:   cfg.Scenario,
		FiveGShare: cfg.FiveGShare,
		Seed:       cfg.Seed,
	}, cfg.CacheClients)
	if err != nil {
		return nil, err
	}
	return &Population{n: cfg.Clients, statSample: cfg.StatSample, dataP: dataP, devP: devP}, nil
}

// Eager reports whether the population is dense-backed. It selects only
// the backing store; no caller outside this package branches on it.
func (p *Population) Eager() bool { return p.dataP == nil }

// NumClients returns the population size.
func (p *Population) NumClients() int { return p.n }

// Profile returns the dataset profile.
func (p *Population) Profile() data.Profile {
	if p.Eager() {
		return p.fed.Profile
	}
	return p.dataP.Profile()
}

// GlobalTest returns the shared class-balanced holdout.
func (p *Population) GlobalTest() []nn.Sample {
	if p.Eager() {
		return p.fed.GlobalTest
	}
	return p.dataP.GlobalTest()
}

// Client returns client id, deriving it on demand in lazy mode. The
// returned pointer is stable only while the client is resident; callers
// holding it across other cache traffic must Acquire instead.
func (p *Population) Client(id int) *device.Client {
	if p.Eager() {
		return p.clients[id]
	}
	return p.devP.Client(id)
}

// AcquireClient returns client id pinned against eviction until Release.
func (p *Population) AcquireClient(id int) *device.Client {
	if p.Eager() {
		return p.clients[id]
	}
	return p.devP.Acquire(id)
}

// AcquireShard returns client id's data shard pinned until Release.
func (p *Population) AcquireShard(id int) data.ClientShard {
	if p.Eager() {
		return data.ClientShard{Train: p.fed.Train[id], LocalTest: p.fed.LocalTest[id]}
	}
	return p.dataP.Acquire(id)
}

// Shard returns client id's data shard without pinning.
func (p *Population) Shard(id int) data.ClientShard {
	if p.Eager() {
		return data.ClientShard{Train: p.fed.Train[id], LocalTest: p.fed.LocalTest[id]}
	}
	return p.dataP.Shard(id)
}

// Release drops the pins AcquireClient + AcquireShard took on client id.
func (p *Population) Release(id int) {
	if p.Eager() {
		return
	}
	p.dataP.Release(id)
	p.devP.Release(id)
}

// statIDs returns the deterministic strided sample behind the population
// statistics: every client when the population fits in StatSample,
// otherwise StatSample evenly spaced IDs.
func (p *Population) statIDs() []int {
	count := p.n
	if count > p.statSample {
		count = p.statSample
	}
	ids := make([]int, count)
	for i := range ids {
		ids[i] = i * p.n / count
	}
	return ids
}

// MeanShardSize returns the mean client shard size over the statistics
// sample, floored at 1.
func (p *Population) MeanShardSize() int {
	ids := p.statIDs()
	if len(ids) == 0 {
		return 1
	}
	total := 0
	for _, id := range ids {
		if p.Eager() {
			total += len(p.fed.Train[id])
		} else {
			total += p.dataP.ShardSize(id)
		}
	}
	m := total / len(ids)
	if m <= 0 {
		m = 1
	}
	return m
}

// CleanResponseEstimates returns clean (interference-free) response-time
// estimates over the statistics sample — the input to deadline
// auto-derivation. Lazy clients are derived ephemerally and never enter
// the cache.
func (p *Population) CleanResponseEstimates(w device.WorkSpec) []float64 {
	ids := p.statIDs()
	ests := make([]float64, len(ids))
	for i, id := range ids {
		if p.Eager() {
			ests[i] = device.EstimateCleanResponseSeconds(p.clients[id], w)
		} else {
			ests[i] = p.devP.EstimateClean(id, w)
		}
	}
	return ests
}

// Stats returns the shard- and device-cache counters (zero in eager mode).
func (p *Population) Stats() (shard, dev wset.Stats) {
	if p.Eager() {
		return wset.Stats{}, wset.Stats{}
	}
	return p.dataP.Stats(), p.devP.Stats()
}

// Instrument registers the population-cache metrics on reg and starts
// feeding them; FlushObs pushes counter deltas at deterministic schedule
// points (the engines call it once per round/barrier).
func (p *Population) Instrument(reg *obs.Registry) {
	if reg == nil || p.Eager() {
		return
	}
	p.shardHits = reg.Counter(`pop_cache_hits_total{kind="shard"}`)
	p.shardMisses = reg.Counter(`pop_cache_misses_total{kind="shard"}`)
	p.shardEvictions = reg.Counter(`pop_cache_evictions_total{kind="shard"}`)
	p.devHits = reg.Counter(`pop_cache_hits_total{kind="device"}`)
	p.devMisses = reg.Counter(`pop_cache_misses_total{kind="device"}`)
	p.devEvictions = reg.Counter(`pop_cache_evictions_total{kind="device"}`)
	p.shardResident = reg.Gauge(`pop_resident_clients{kind="shard"}`)
	p.devResident = reg.Gauge(`pop_resident_clients{kind="device"}`)
	p.shardPeak = reg.Gauge(`pop_resident_peak{kind="shard"}`)
	p.devPeak = reg.Gauge(`pop_resident_peak{kind="device"}`)
	// Derivation cost is observed in deterministic units — samples
	// synthesized per derivation — not wall time, which would break the
	// byte-reproducible exposition contract.
	p.deriveSamples = reg.Histogram("pop_derive_samples", []float64{8, 16, 32, 64, 128, 256, 512, 1024})
	p.dataP.OnDerive = func(samples int) { p.deriveSamples.Observe(float64(samples)) }
}

// FlushObs publishes cache-counter deltas and residency gauges. The
// engines call it at schedule-determined points (end of each collect pass)
// so exposition bytes never depend on Parallelism.
func (p *Population) FlushObs() {
	if p.Eager() || p.shardHits == nil {
		return
	}
	shard, dev := p.Stats()
	p.shardHits.Add(shard.Hits - p.lastShard.Hits)
	p.shardMisses.Add(shard.Misses - p.lastShard.Misses)
	p.shardEvictions.Add(shard.Evictions - p.lastShard.Evictions)
	p.devHits.Add(dev.Hits - p.lastDev.Hits)
	p.devMisses.Add(dev.Misses - p.lastDev.Misses)
	p.devEvictions.Add(dev.Evictions - p.lastDev.Evictions)
	p.shardResident.Set(float64(shard.Resident))
	p.devResident.Set(float64(dev.Resident))
	p.shardPeak.Set(float64(shard.Peak))
	p.devPeak.Set(float64(dev.Peak))
	p.lastShard, p.lastDev = shard, dev
}

// Materialize converts a lazy population into the dense pair (eager
// populations return their backing directly). Intended for small-scale
// equivalence tests and adapters, not for million-client runs.
func (p *Population) Materialize() (*data.Federation, []*device.Client) {
	if p.Eager() {
		return p.fed, p.clients
	}
	return p.dataP.Materialize(), p.devP.Materialize()
}
