package selection

import (
	"math"
	"math/rand"
	"sort"

	"floatfl/internal/device"
)

// PopulationView is the population handle selectors draw from: client
// state may be derived on demand, so a selector must probe clients it is
// actually considering rather than scan the whole population. The fl
// engines pass their population facade here, for eager and lazy backings
// alike; Client may derive (and cache) the client, so calls are confined
// to the single-threaded dispatch pass — the same contract SelectLazy
// already has.
type PopulationView interface {
	NumClients() int
	Client(id int) *device.Client
}

// LazySelector is a Selector that can also draw from an explicit client
// pool. No engine uses the pool form; the type stays only because the
// repository benchmark harness (perfbench) wraps the Random selector
// through it, and Random is the one selector that still implements it.
type LazySelector interface {
	Selector
	Select(info RoundInfo, pool []*device.Client, k int) []int
}

// PermSampler walks a uniform random permutation of [0, n) lazily: Next
// performs one Fisher-Yates step using a sparse swap map, so drawing m
// elements costs O(m) memory regardless of n. Distinctness is inherited
// from the permutation. It is the sampling primitive behind every selector
// (and the async engine's launch sampling).
type PermSampler struct {
	rng   *rand.Rand
	n, i  int
	swaps map[int]int
}

// NewPermSampler constructs a sampler over [0, n) drawing from rng.
func NewPermSampler(rng *rand.Rand, n int) *PermSampler {
	return &PermSampler{rng: rng, n: n, swaps: make(map[int]int)}
}

func (s *PermSampler) at(k int) int {
	if v, ok := s.swaps[k]; ok {
		return v
	}
	return k
}

// Next returns the permutation's next element, false when exhausted.
func (s *PermSampler) Next() (int, bool) {
	if s.i >= s.n {
		return 0, false
	}
	j := s.i + s.rng.Intn(s.n-s.i)
	vi, vj := s.at(s.i), s.at(j)
	s.swaps[s.i], s.swaps[j] = vj, vi
	s.i++
	return vj, true
}

// SelectLazy implements Selector: walk a uniform random permutation,
// keeping the first k currently-available clients — a uniform k-subset of
// the checked-in clients, without an O(population) check-in scan.
func (r *Random) SelectLazy(info RoundInfo, view PopulationView, k int) []int {
	n := view.NumClients()
	if k > n {
		k = n
	}
	ps := NewPermSampler(r.rng, n)
	out := make([]int, 0, k)
	for len(out) < k {
		id, ok := ps.Next()
		if !ok {
			break
		}
		if view.Client(id).ResourcesAt(info.Round).Available {
			out = append(out, id)
		}
	}
	return out
}

// probeBudget bounds how many clients a probe-sampled selector derives
// per round beyond its target: generous enough that a typical availability
// rate fills k, bounded so a blackout round costs O(k), not O(population).
func probeBudget(k, n int) int {
	budget := 8*k + 64
	if budget > n {
		budget = n
	}
	return budget
}

// SelectLazy implements Selector for Oort: the exploration slice draws
// from a probe-bounded random sample of never-tried clients, and
// exploitation ranks the *known* set (clients with observed feedback —
// already O(tried), not O(population)) by Oort utility, walking best-first
// and admitting only currently-available clients.
func (o *Oort) SelectLazy(info RoundInfo, view PopulationView, k int) []int {
	n := view.NumClients()
	if k > n {
		k = n
	}
	preferred := o.cfg.PreferredDurationSec
	if preferred <= 0 {
		if o.pacerT <= 0 {
			o.pacerT = info.DeadlineSec * 0.8
			if o.pacerT <= 0 {
				o.pacerT = 60
			}
		}
		o.pace()
		preferred = o.pacerT
	}

	nExplore := int(math.Round(o.cfg.ExploreFrac * float64(k)))
	if nExplore > k {
		nExplore = k
	}
	chosen := make([]int, 0, k)
	inChosen := make(map[int]bool, k)
	ps := NewPermSampler(o.rng, n)
	for probes := probeBudget(nExplore, n); probes > 0 && len(chosen) < nExplore; probes-- {
		id, ok := ps.Next()
		if !ok {
			break
		}
		if o.tried[id] {
			continue
		}
		if view.Client(id).ResourcesAt(info.Round).Available {
			chosen = append(chosen, id)
			inChosen[id] = true
		}
	}

	// Exploitation over the known set, in sorted-ID order for determinism.
	known := make([]int, 0, len(o.tried))
	for id := range o.tried {
		known = append(known, id)
	}
	sort.Ints(known)
	type scored struct {
		id    int
		score float64
		tie   float64
	}
	rank := make([]scored, 0, len(known))
	blacklisted := make([]scored, 0)
	for _, id := range known {
		if inChosen[id] {
			continue
		}
		u := o.utility(id, preferred)
		s := scored{id: id, score: u, tie: o.rng.Float64()}
		if math.IsInf(u, -1) {
			blacklisted = append(blacklisted, s)
			continue
		}
		rank = append(rank, s)
	}
	byScore := func(ss []scored) func(i, j int) bool {
		return func(i, j int) bool {
			if ss[i].score != ss[j].score {
				return ss[i].score > ss[j].score
			}
			return ss[i].tie < ss[j].tie
		}
	}
	sort.Slice(rank, byScore(rank))
	sort.Slice(blacklisted, byScore(blacklisted))
	// Walk best-first, probing availability; blacklisted clients are the
	// last resort.
	for _, tier := range [][]scored{rank, blacklisted} {
		for _, s := range tier {
			if len(chosen) >= k {
				return chosen
			}
			if view.Client(s.id).ResourcesAt(info.Round).Available {
				chosen = append(chosen, s.id)
				inChosen[s.id] = true
			}
		}
	}
	// Unfilled slots (cold start: nothing known yet) fall back to random
	// exploration of untried clients.
	for probes := probeBudget(k-len(chosen), n); probes > 0 && len(chosen) < k; probes-- {
		id, ok := ps.Next()
		if !ok {
			break
		}
		if inChosen[id] {
			continue
		}
		if view.Client(id).ResourcesAt(info.Round).Available {
			chosen = append(chosen, id)
			inChosen[id] = true
		}
	}
	return chosen
}

// SelectLazy implements Selector for REFL: the server pings a
// probe-bounded random sample each round (it cannot ping a million
// clients), feeds the observations into the per-client availability
// histories, and picks the fastest predicted-available clients from the
// sample.
func (r *REFL) SelectLazy(info RoundInfo, view PopulationView, k int) []int {
	n := view.NumClients()
	if k > n {
		k = n
	}
	ps := NewPermSampler(r.rng, n)
	probed := make([]int, 0, probeBudget(k, n))
	avail := make(map[int]bool, probeBudget(k, n))
	for probes := probeBudget(k, n); probes > 0; probes-- {
		id, ok := ps.Next()
		if !ok {
			break
		}
		a := view.Client(id).ResourcesAt(info.Round).Available
		probed = append(probed, id)
		avail[id] = a
		h := append(r.history[id], a)
		if len(h) > r.cfg.Window {
			h = h[len(h)-r.cfg.Window:]
		}
		r.history[id] = h
	}
	candidates := make([]int, 0, len(probed))
	for _, id := range probed {
		// REFL's window prediction, additionally gated on the ping result:
		// the server only dispatches to clients that answered.
		if avail[id] && r.predictAvailable(id) {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		for _, id := range probed {
			if avail[id] {
				candidates = append(candidates, id)
			}
		}
	}
	type scored struct {
		id    int
		score float64
		tie   float64
	}
	ss := make([]scored, len(candidates))
	for i, id := range candidates {
		t, ok := r.respSecs[id]
		if !ok {
			t = device.EstimateResponseSeconds(view.Client(id), info.Round, info.Work)
		}
		ss[i] = scored{id: id, score: -t, tie: r.rng.Float64()}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].tie < ss[j].tie
	})
	if k > len(ss) {
		k = len(ss)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ss[i].id
	}
	return out
}
