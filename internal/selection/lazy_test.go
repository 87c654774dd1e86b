package selection

import (
	"math/rand"
	"sort"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/trace"
)

// fakeView is a dense PopulationView for selector tests, counting how many
// distinct clients a selector actually derived.
type fakeView struct {
	clients []*device.Client
	touched map[int]bool
}

func newFakeView(t *testing.T, n int, seed int64) *fakeView {
	t.Helper()
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: n, Scenario: trace.ScenarioDynamic, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fakeView{clients: pop, touched: make(map[int]bool)}
}

func (v *fakeView) NumClients() int { return len(v.clients) }
func (v *fakeView) Client(id int) *device.Client {
	v.touched[id] = true
	return v.clients[id]
}

func checkSelection(t *testing.T, ids []int, view *fakeView, round, k int) {
	t.Helper()
	if len(ids) > k {
		t.Fatalf("selected %d ids, want ≤ %d", len(ids), k)
	}
	seen := make(map[int]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate id %d in selection", id)
		}
		seen[id] = true
		if id < 0 || id >= view.NumClients() {
			t.Fatalf("id %d out of range", id)
		}
		if !view.clients[id].ResourcesAt(round).Available {
			t.Fatalf("selected unavailable client %d", id)
		}
	}
}

// TestLazySelectorsContract runs every built-in selector through a few
// lazy rounds with feedback, asserting the Selector contract: distinct
// in-range available IDs, and a probe count that is O(k), not
// O(population).
func TestLazySelectorsContract(t *testing.T) {
	const n, k = 5000, 10
	selectors := map[string]Selector{
		"random": NewRandom(3),
		"oort":   NewOort(OortConfig{Seed: 4}),
		"refl":   NewREFL(REFLConfig{Seed: 5}),
	}
	names := make([]string, 0, len(selectors))
	for name := range selectors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sel := selectors[name]
		t.Run(name, func(t *testing.T) {
			view := newFakeView(t, n, 11)
			rng := rand.New(rand.NewSource(1))
			for round := 0; round < 5; round++ {
				info := RoundInfo{Round: round, DeadlineSec: 120}
				ids := sel.SelectLazy(info, view, k)
				checkSelection(t, ids, view, round, k)
				if len(ids) == 0 {
					t.Fatalf("round %d: selected nothing from a %d-client population", round, n)
				}
				for _, id := range ids {
					sel.Observe(Feedback{
						ClientID: id,
						Round:    round,
						Outcome: device.Outcome{
							Completed: rng.Float64() < 0.7,
							Cost:      device.Cost{TotalSeconds: 10 + 50*rng.Float64()},
						},
						StatUtility: rng.Float64(),
					})
				}
			}
			// The point of lazy selection: a 5000-client population must not
			// be scanned. Budget: 5 rounds × (8k+64) probes plus slack.
			if got, bound := len(view.touched), 5*(8*k+64)+k; got > bound {
				t.Fatalf("selector derived %d clients over 5 rounds, want ≤ %d (O(selected), not O(population))", got, bound)
			}
		})
	}
}

// TestRandomLazyDeterministic pins that SelectLazy is a pure function of
// (seed, access sequence).
func TestRandomLazyDeterministic(t *testing.T) {
	run := func() [][]int {
		sel := NewRandom(9)
		view := newFakeView(t, 1000, 13)
		var out [][]int
		for round := 0; round < 4; round++ {
			out = append(out, sel.SelectLazy(RoundInfo{Round: round}, view, 8))
		}
		return out
	}
	a, b := run(), run()
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatalf("round %d: lengths differ", r)
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatalf("round %d slot %d: %d vs %d", r, i, a[r][i], b[r][i])
			}
		}
	}
}

// TestPermSamplerIsPermutation exhausts the sampler and checks it emits
// each element exactly once.
func TestPermSamplerIsPermutation(t *testing.T) {
	ps := NewPermSampler(rand.New(rand.NewSource(2)), 257)
	seen := make(map[int]bool)
	for {
		v, ok := ps.Next()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d emitted twice", v)
		}
		if v < 0 || v >= 257 {
			t.Fatalf("value %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 257 {
		t.Fatalf("emitted %d distinct values, want 257", len(seen))
	}
}
