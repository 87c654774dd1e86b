package selection

import (
	"bytes"
	"testing"

	"floatfl/internal/device"
)

// drive runs a selector through rounds of selection + feedback over a
// small materialized pool, returning the concatenated selections.
func drive(t *testing.T, s Selector, pool *fakeView, start, rounds int) []int {
	t.Helper()
	var out []int
	for round := start; round < start+rounds; round++ {
		info := RoundInfo{Round: round, DeadlineSec: 120, Work: device.WorkSpec{RefFLOPsPerSample: 1e6, RefParams: 1e5, Samples: 64, Epochs: 1}}
		ids := s.SelectLazy(info, pool, 4)
		out = append(out, ids...)
		for i, id := range ids {
			s.Observe(Feedback{
				ClientID:    id,
				Round:       round,
				Outcome:     device.Outcome{Completed: i%2 == 0, Reason: device.DropDeadline, Cost: device.Cost{TotalSeconds: float64(10 + id)}},
				StatUtility: float64(id%7) + 0.5,
			})
		}
	}
	return out
}

func testPool(t *testing.T) *fakeView {
	t.Helper()
	pool, err := device.NewPopulation(device.PopulationConfig{Clients: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return &fakeView{clients: pool, touched: make(map[int]bool)}
}

// TestSelectorCheckpointResume proves, for each built-in selector, that
// running 2N rounds equals running N rounds, snapshotting, restoring into
// a freshly seeded selector, and running N more — and that the state blob
// itself is byte-stable across identical captures.
func TestSelectorCheckpointResume(t *testing.T) {
	type stateful interface {
		Selector
		CheckpointState() ([]byte, error)
		RestoreCheckpoint([]byte) error
	}
	makers := map[string]func() stateful{
		"random": func() stateful { return NewRandom(77) },
		"oort":   func() stateful { return NewOort(OortConfig{Seed: 77}) },
		"refl":   func() stateful { return NewREFL(REFLConfig{Seed: 77}) },
	}
	for name, mk := range makers {
		t.Run(name, func(t *testing.T) {
			// Full run: 12 rounds on one pool.
			full := mk()
			fullPicks := drive(t, full, testPool(t), 0, 12)

			// Prefix run + snapshot.
			prefix := mk()
			prefixPicks := drive(t, prefix, testPool(t), 0, 6)
			blob, err := prefix.CheckpointState()
			if err != nil {
				t.Fatalf("CheckpointState: %v", err)
			}
			blob2, err := prefix.CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("CheckpointState is not byte-stable:\n%s\n%s", blob, blob2)
			}

			// Restore into a fresh selector; note the pool is rebuilt too —
			// trace state is driven by ResourcesAt probes, and both arms
			// probe identically.
			resumed := mk()
			if err := resumed.RestoreCheckpoint(blob); err != nil {
				t.Fatalf("RestoreCheckpoint: %v", err)
			}
			resumedPool := testPool(t)
			// Catch the pool's traces up to the prefix rounds the way the
			// engines' deterministic replay does: identical probe sequence.
			drive(t, mk(), resumedPool, 0, 6)
			resumedPicks := drive(t, resumed, resumedPool, 6, 6)

			got := append(append([]int(nil), prefixPicks...), resumedPicks...)
			if len(got) != len(fullPicks) {
				t.Fatalf("pick count %d, want %d", len(got), len(fullPicks))
			}
			for i := range got {
				if got[i] != fullPicks[i] {
					t.Fatalf("picks diverge at %d: resumed %v vs full %v", i, got, fullPicks)
				}
			}
		})
	}
}
