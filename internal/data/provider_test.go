package data

import (
	"testing"

	"floatfl/internal/nn"
)

func sampleEqual(a, b nn.Sample) bool {
	if a.Label != b.Label || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] { // bit-exact, not approximate
			return false
		}
	}
	return true
}

func shardEqual(a, b ClientShard) bool {
	if len(a.Train) != len(b.Train) || len(a.LocalTest) != len(b.LocalTest) {
		return false
	}
	for i := range a.Train {
		if !sampleEqual(a.Train[i], b.Train[i]) {
			return false
		}
	}
	for i := range a.LocalTest {
		if !sampleEqual(a.LocalTest[i], b.LocalTest[i]) {
			return false
		}
	}
	return true
}

// TestDeriveClientOrderIndependent is the lazy-population correctness
// contract: for every dataset profile, deriving client i through a
// provider equals the eagerly Materialized federation's client i
// bit-for-bit, no matter in which order clients are accessed — including
// re-derivation after eviction (the tiny cache forces constant thrash).
func TestDeriveClientOrderIndependent(t *testing.T) {
	const clients = 12
	for _, name := range ProfileNames() {
		t.Run(name, func(t *testing.T) {
			cfg := GenerateConfig{Clients: clients, Alpha: 0.1, Seed: 11}

			eagerP, err := NewProvider(name, cfg, clients)
			if err != nil {
				t.Fatal(err)
			}
			fed := eagerP.Materialize()

			// Order A: forward. Order B: a scattered order with repeats,
			// through a cache of 2 so most accesses re-derive after
			// eviction.
			lazy, err := NewProvider(name, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			orderA := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
			orderB := []int{7, 2, 11, 2, 0, 9, 7, 4, 1, 10, 3, 8, 5, 6, 0, 11}
			for _, order := range [][]int{orderB, orderA} {
				for _, id := range order {
					got := lazy.Shard(id)
					want := ClientShard{Train: fed.Train[id], LocalTest: fed.LocalTest[id]}
					if !shardEqual(got, want) {
						t.Fatalf("client %d: lazy shard deviates from materialized federation", id)
					}
				}
			}
			if len(lazy.GlobalTest()) != len(fed.GlobalTest) {
				t.Fatalf("global test length %d, want %d", len(lazy.GlobalTest()), len(fed.GlobalTest))
			}
			for i := range fed.GlobalTest {
				if !sampleEqual(lazy.GlobalTest()[i], fed.GlobalTest[i]) {
					t.Fatalf("global test sample %d deviates", i)
				}
			}
		})
	}
}

// TestDeriveShardSizeMatchesDerivation pins that the cheap size-only
// derivation agrees with the full one (they share a stream prefix, so a
// drift here means the streams were reordered).
func TestDeriveShardSizeMatchesDerivation(t *testing.T) {
	p, err := NewProvider("femnist", GenerateConfig{Clients: 50, Seed: 3}, 8)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 50; id += 7 {
		if got, want := p.ShardSize(id), len(p.Shard(id).Train); got != want {
			t.Fatalf("client %d: ShardSize %d, full derivation %d", id, got, want)
		}
	}
}

// TestProviderCacheBound asserts residency stays within capacity + pins.
func TestProviderCacheBound(t *testing.T) {
	p, err := NewProvider("femnist", GenerateConfig{Clients: 100, Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for id := 0; id < 100; id++ {
		if id%10 == 0 {
			p.Acquire(id)
			pinned++
		} else {
			p.Shard(id)
		}
		if got, bound := p.Stats().Resident, 4+pinned; got > bound {
			t.Fatalf("resident %d exceeds capacity+pinned %d", got, bound)
		}
	}
	for id := 0; id < 100; id += 10 {
		p.Release(id)
	}
	if got := p.Stats().Resident; got > 5 {
		t.Fatalf("resident %d after releases, want ≤ capacity+1", got)
	}
}
