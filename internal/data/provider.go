package data

import (
	"fmt"
	"math"
	"math/rand"

	"floatfl/internal/nn"
	"floatfl/internal/tensor"
	"floatfl/internal/wset"
)

// ClientSeed mixes the federation seed with a client ID into the seed of
// that client's private RNG stream (splitmix64-style finalizer). Every
// stream is independent of every other, so client i's shard can be derived
// without generating clients 0..i-1 — the property the lazy population
// stands on. Negative IDs are reserved for shared streams (class centers,
// global test set).
func ClientSeed(seed, id int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // rand.NewSource wants a non-negative-friendly seed; any value works, keep it positive for readability
}

// Reserved pseudo-client IDs for the federation's shared streams.
const (
	centersStreamID    = -1
	globalTestStreamID = -2
)

// ClientShard is one client's lazily-derived data: its training set and
// local test split. Shards are immutable once derived; callers must not
// mutate the samples (they may be shared by a cache).
type ClientShard struct {
	Train     []nn.Sample
	LocalTest []nn.Sample
}

// normalizeGenerate applies Generate's defaulting rules so the lazy and
// eager paths agree on effective alpha / test fraction.
func normalizeGenerate(cfg GenerateConfig) GenerateConfig {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.1
	}
	if cfg.LocalTestFraction <= 0 || cfg.LocalTestFraction >= 1 {
		cfg.LocalTestFraction = 0.25
	}
	return cfg
}

// DeriveCenters derives the federation's shared class centers from the
// seed's dedicated stream. All clients of a federation share one centers
// slice; the vectors are immutable after derivation.
func DeriveCenters(p Profile, seed int64) []tensor.Vector {
	rng := rand.New(rand.NewSource(ClientSeed(seed, centersStreamID)))
	centers := make([]tensor.Vector, p.Classes)
	for c := range centers {
		centers[c] = tensor.NewVector(p.Dim)
		tensor.RandnInto(centers[c], p.Sep, rng)
	}
	return centers
}

// deriveSample draws one sample of the given class: center plus profile
// noise from the caller's stream.
func deriveSample(p Profile, centers []tensor.Vector, class int, rng *rand.Rand) nn.Sample {
	x := centers[class].Clone()
	noise := tensor.NewVector(p.Dim)
	tensor.RandnInto(noise, p.Noise, rng)
	x.AddScaled(1, noise)
	return nn.Sample{X: x, Label: class}
}

// DeriveClient derives client id's shard purely from (cfg.Seed, id): label
// distribution, sample volume, then train and local-test samples, all from
// the client's private RNG stream. The derivation is order-independent —
// deriving client 7 first and client 3 second yields bit-identical shards
// to any other order, unlike the sequential single-stream Generate.
func DeriveClient(p Profile, cfg GenerateConfig, centers []tensor.Vector, id int) ClientShard {
	cfg = normalizeGenerate(cfg)
	rng := rand.New(rand.NewSource(ClientSeed(cfg.Seed, int64(id))))
	labelDist := SampleDirichlet(p.Classes, cfg.Alpha, rng)
	n := sampleClientVolume(p.MeanSamplesPerClient, rng)
	nTest := int(math.Round(float64(n) * cfg.LocalTestFraction))
	if nTest < 2 {
		nTest = 2
	}
	train := make([]nn.Sample, 0, n)
	for s := 0; s < n; s++ {
		train = append(train, deriveSample(p, centers, sampleCategorical(labelDist, rng), rng))
	}
	test := make([]nn.Sample, 0, nTest)
	for s := 0; s < nTest; s++ {
		test = append(test, deriveSample(p, centers, sampleCategorical(labelDist, rng), rng))
	}
	return ClientShard{Train: train, LocalTest: test}
}

// DeriveShardSize derives only client id's sample count — the label-
// distribution and volume draws, without synthesizing any sample vectors.
// Used by provider statistics (mean shard size) at a tiny fraction of the
// cost of a full derivation.
func DeriveShardSize(p Profile, cfg GenerateConfig, id int) int {
	cfg = normalizeGenerate(cfg)
	rng := rand.New(rand.NewSource(ClientSeed(cfg.Seed, int64(id))))
	SampleDirichlet(p.Classes, cfg.Alpha, rng)
	return sampleClientVolume(p.MeanSamplesPerClient, rng)
}

// DeriveGlobalTest derives the class-balanced holdout from its dedicated
// stream.
func DeriveGlobalTest(p Profile, seed int64, centers []tensor.Vector) []nn.Sample {
	rng := rand.New(rand.NewSource(ClientSeed(seed, globalTestStreamID)))
	out := make([]nn.Sample, 0, p.TestSamples)
	for s := 0; s < p.TestSamples; s++ {
		out = append(out, deriveSample(p, centers, s%p.Classes, rng))
	}
	return out
}

// Provider derives client shards on demand from (seed, clientID) and keeps
// a bounded LRU working set resident. It is the lazy counterpart of
// Generate: a Provider with capacity ≥ Clients that touches every client
// produces the same federation Materialize would, but a round that touches
// only selected clients costs O(selected) memory instead of O(population).
//
// Providers are confined to the engines' single-threaded dispatch/collect
// passes (the same contract selectors and controllers already obey), which
// makes cache hit/miss/eviction counts deterministic.
type Provider struct {
	profile Profile
	cfg     GenerateConfig
	centers []tensor.Vector

	cache      *wset.Cache[int, ClientShard]
	globalTest []nn.Sample

	// OnDerive, when non-nil, observes each full shard derivation with the
	// number of samples synthesized (population telemetry hook).
	OnDerive func(samples int)
}

// NewProvider constructs a lazy shard provider. cacheClients bounds the
// unpinned resident working set (≤ 0 defaults to 4096). Only the shared
// state — class centers and the global test set — is derived eagerly.
func NewProvider(profileName string, cfg GenerateConfig, cacheClients int) (*Provider, error) {
	p, err := LookupProfile(profileName)
	if err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("data: provider requires positive client count, got %d", cfg.Clients)
	}
	if cacheClients <= 0 {
		cacheClients = 4096
	}
	cfg = normalizeGenerate(cfg)
	centers := DeriveCenters(p, cfg.Seed)
	return &Provider{
		profile:    p,
		cfg:        cfg,
		centers:    centers,
		cache:      wset.New[int, ClientShard](cacheClients, nil),
		globalTest: DeriveGlobalTest(p, cfg.Seed, centers),
	}, nil
}

// Profile returns the dataset profile.
func (pr *Provider) Profile() Profile { return pr.profile }

// NumClients returns the population size.
func (pr *Provider) NumClients() int { return pr.cfg.Clients }

// Alpha returns the effective Dirichlet concentration.
func (pr *Provider) Alpha() float64 { return pr.cfg.Alpha }

// GlobalTest returns the shared class-balanced holdout.
func (pr *Provider) GlobalTest() []nn.Sample { return pr.globalTest }

// Shard returns client id's shard, deriving it on a cache miss.
func (pr *Provider) Shard(id int) ClientShard {
	if s, ok := pr.cache.Get(id); ok {
		return s
	}
	s := DeriveClient(pr.profile, pr.cfg, pr.centers, id)
	if pr.OnDerive != nil {
		pr.OnDerive(len(s.Train) + len(s.LocalTest))
	}
	pr.cache.Add(id, s)
	return s
}

// Acquire returns client id's shard pinned against eviction until the
// matching Release — the engines pin every selected client for the
// duration of its round so parallel workers never observe an evicted
// shard.
func (pr *Provider) Acquire(id int) ClientShard {
	s := pr.Shard(id)
	pr.cache.Pin(id)
	return s
}

// Release drops one pin reference on client id.
func (pr *Provider) Release(id int) { pr.cache.Unpin(id) }

// ShardSize returns client id's sample count without synthesizing samples
// or touching the cache.
func (pr *Provider) ShardSize(id int) int {
	return DeriveShardSize(pr.profile, pr.cfg, id)
}

// Stats returns the working-set cache counters.
func (pr *Provider) Stats() wset.Stats { return pr.cache.Stats() }

// UnpinnedResidents returns the unpinned resident shard IDs in
// least-recently-used-first order. Shards are immutable, so residency plus
// cache stats is the provider's whole checkpointable state.
func (pr *Provider) UnpinnedResidents() []int { return pr.cache.UnpinnedKeys() }

// WarmCache derives the given shards in order, re-populating cache
// residency after a restore; the caller overwrites stats afterwards.
func (pr *Provider) WarmCache(ids []int) {
	for _, id := range ids {
		pr.Shard(id)
	}
}

// SetCacheStats overwrites the cache activity counters with captured ones.
func (pr *Provider) SetCacheStats(s wset.Stats) { pr.cache.SetStats(s) }

// Materialize eagerly derives every client into a Federation — the
// adapter that lets lazy-provider populations feed any API still wanting
// dense arrays, and the oracle the order-independence tests compare
// against. It bypasses the cache (materializing a million clients through
// an LRU would just thrash it).
func (pr *Provider) Materialize() *Federation {
	fed := &Federation{Profile: pr.profile, Alpha: pr.cfg.Alpha}
	fed.Train = make([][]nn.Sample, pr.cfg.Clients)
	fed.LocalTest = make([][]nn.Sample, pr.cfg.Clients)
	for i := 0; i < pr.cfg.Clients; i++ {
		s := DeriveClient(pr.profile, pr.cfg, pr.centers, i)
		fed.Train[i] = s.Train
		fed.LocalTest[i] = s.LocalTest
	}
	fed.GlobalTest = pr.globalTest
	return fed
}
