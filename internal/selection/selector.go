// Package selection implements the client-selection algorithms FLOAT is
// evaluated against: Random (FedAvg's policy), Oort's utility-guided
// selection, and REFL's availability-window prediction. FedBuff's
// over-selection is implemented by the asynchronous engine in internal/fl,
// which keeps a concurrency target filled by walking a random permutation
// of the population (PermSampler).
//
// Each algorithm is faithful to the behaviour the paper measures rather
// than to the full original codebase: Oort prefers clients with high
// statistical utility and fast responses (and therefore biases toward
// efficient clients); REFL predicts each client's availability from its
// recent history and assumes the window holds for the whole round — the
// exact assumption the paper shows failing under dynamic resources.
package selection

import (
	"math"
	"math/rand"

	"floatfl/internal/device"
	"floatfl/internal/rngstate"
)

// RoundInfo carries the context a selector may use when choosing clients.
type RoundInfo struct {
	Round       int
	Work        device.WorkSpec
	DeadlineSec float64
}

// Feedback reports one executed client-round back to the selector.
type Feedback struct {
	ClientID int
	Round    int
	Outcome  device.Outcome
	// StatUtility is the loss-based statistical utility of the client's
	// update (Oort's |B|·sqrt(mean squared loss) signal); zero if unknown.
	StatUtility float64
}

// Selector chooses k clients each round and learns from feedback.
// Selectors are used single-threaded: the engines call SelectLazy on the
// round's dispatch pass and Observe on the collect pass, in selection
// order, from one goroutine — even when client execution itself is
// parallel.
type Selector interface {
	Name() string
	// SelectLazy returns the IDs of up to k clients drawn from view. Client
	// state may be derived on demand, so a selector probes only the
	// clients it actually considers — a bounded number per round, never
	// the whole population — and returns distinct IDs of clients that are
	// available at info.Round.
	SelectLazy(info RoundInfo, view PopulationView, k int) []int
	// Observe ingests the outcome of a client round.
	Observe(fb Feedback)
}

// Random selects uniformly at random — FedAvg's policy.
type Random struct {
	rng *rand.Rand
	src *rngstate.Source
}

// NewRandom returns the FedAvg random selector.
func NewRandom(seed int64) *Random {
	src := rngstate.New(seed)
	return &Random{rng: rand.New(src), src: src}
}

// Name implements Selector.
func (r *Random) Name() string { return "fedavg" }

// Select draws a uniform k-subset of an explicit client pool. No engine
// calls it — the engines select through SelectLazy — but the repository
// benchmark harness names it through LazySelector, so it stays.
func (r *Random) Select(_ RoundInfo, pool []*device.Client, k int) []int {
	if k > len(pool) {
		k = len(pool)
	}
	perm := r.rng.Perm(len(pool))
	out := make([]int, 0, k)
	for _, idx := range perm[:k] {
		out = append(out, pool[idx].ID)
	}
	return out
}

// Observe implements Selector (random selection learns nothing).
func (r *Random) Observe(Feedback) {}

// clamp01 bounds x to [0, 1].
func clamp01(x float64) float64 {
	return math.Max(0, math.Min(1, x))
}
