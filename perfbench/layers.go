package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"time"

	"floatfl/internal/data"
	"floatfl/internal/nn"
	"floatfl/internal/tensor"
	"floatfl/internal/wset"
)

// layerSet collects one traced run's per-layer metrics by name.
type layerSet map[string]float64

func (ly layerSet) controller(c *tracedController) {
	ly["core.decide_s"] = c.decide.seconds()
	ly["core.decide_calls"] = c.decide.count()
	ly["core.feedback_s"] = c.feedback.seconds()
	ly["core.feedback_calls"] = c.feedback.count()
}

// population records the working-set caches' counters, as
// Population.Stats reports them after the run; an eager population
// reports zeros.
func (ly layerSet) population(shard, dev wset.Stats) {
	ly["population.shard_hits"] = float64(shard.Hits)
	ly["population.shard_misses"] = float64(shard.Misses)
	ly["population.shard_evictions"] = float64(shard.Evictions)
	ly["population.shard_hit_ratio"] = frac(float64(shard.Hits), float64(shard.Hits+shard.Misses))
	ly["population.shard_resident_peak"] = float64(shard.Peak)
	ly["population.device_misses"] = float64(dev.Misses)
	ly["population.device_resident_peak"] = float64(dev.Peak)
}

func (ly layerSet) tensor(b *timedBackend) {
	secs, calls, total, gflop := b.snapshot()
	for k := range kernelNames {
		ly["tensor."+kernelNames[k]+"_s"] = secs[k]
		ly["tensor."+kernelNames[k]+"_calls"] = calls[k]
	}
	ly["tensor.kernel_s"] = total
	ly["tensor.gflop"] = gflop
}

// runtimeStats records the process's allocation and GC totals.
func (ly layerSet) runtimeStats() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ly["runtime.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	ly["runtime.gc_cycles"] = float64(ms.NumGC)
	ly["runtime.gc_pause_s"] = time.Duration(ms.PauseTotalNs).Seconds()
}

// probeClients is how many clients the data and nn probes sample, and
// probeTrainJobs how many local-training jobs the nn probe times.
const (
	probeClients   = 64
	probeTrainJobs = 8
)

// layerProbe times the data and nn layers by direct calls after a run,
// on a strided client sample of the workload's own population.
type layerProbe struct {
	profile data.Profile
	gen     data.GenerateConfig
	shard   func(id int) data.ClientShard
	clients int
	arch    string
	backend string
	train   nn.TrainConfig
}

func (p layerProbe) measure(ly layerSet, final tensor.Vector) error {
	ids := strided(p.clients, probeClients)

	centers := data.DeriveCenters(p.profile, p.gen.Seed)
	derive := make([]time.Duration, len(ids))
	for i, id := range ids {
		t := wallNow()
		data.DeriveClient(p.profile, p.gen, centers, id)
		derive[i] = wallNow().Sub(t)
	}
	ly["data.derive_client_ms"] = median(durationsMs(derive))

	model, err := scoringModel(p.arch, p.profile, p.backend, final)
	if err != nil {
		return err
	}
	eval := make([]time.Duration, len(ids))
	for i, id := range ids {
		ts := p.shard(id).LocalTest
		t := wallNow()
		model.Evaluate(ts)
		eval[i] = wallNow().Sub(t)
	}
	ly["nn.evaluate_ms_per_client"] = median(durationsMs(eval))

	train := make([]time.Duration, 0, probeTrainJobs)
	for _, id := range ids[:min(probeTrainJobs, len(ids))] {
		shard := p.shard(id).Train
		if len(shard) == 0 {
			continue
		}
		if err := model.SetParameters(final); err != nil {
			return err
		}
		t := wallNow()
		if _, err := model.Train(shard, p.train); err != nil {
			return err
		}
		train = append(train, wallNow().Sub(t))
	}
	ly["nn.train_ms_per_job"] = median(durationsMs(train))
	return nil
}

// strided returns up to k client ids spread evenly over [0, n).
func strided(n, k int) []int {
	k = min(k, n)
	ids := make([]int, k)
	for i := range ids {
		ids[i] = i * n / k
	}
	return ids
}

// scoringModel returns a model of the given architecture holding params
// and running on the named backend, as the engines' global model does.
func scoringModel(arch string, p data.Profile, backend string, params tensor.Vector) (*nn.Model, error) {
	be, err := tensor.Lookup(backend)
	if err != nil {
		return nil, err
	}
	m, err := nn.NewModel(arch, p.Dim, p.Classes, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	m.SetBackend(be)
	if err := m.SetParameters(params); err != nil {
		return nil, err
	}
	return m, nil
}

func trainConfigFor(epochs, batch int, lr float64, seed int64) nn.TrainConfig {
	return nn.TrainConfig{Epochs: epochs, BatchSize: batch, LR: lr, GradClip: simClip, Seed: seed}
}

// digest is the SHA-256 of the values' IEEE-754 bits.
func digest(v []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func allFinite(v tensor.Vector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(v) > 0
}
