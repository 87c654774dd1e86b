package selection

import (
	"testing"

	"floatfl/internal/device"
)

func pool(t *testing.T, n int) *fakeView {
	t.Helper()
	return newFakeView(t, n, 7)
}

// availableAt counts the view's clients available at round.
func availableAt(v *fakeView, round int) int {
	n := 0
	for _, c := range v.clients {
		if c.ResourcesAt(round).Available {
			n++
		}
	}
	return n
}

func work() device.WorkSpec {
	return device.WorkSpec{RefFLOPsPerSample: 1e9, RefParams: 1e6, Samples: 50, Epochs: 5}
}

func info(round int) RoundInfo {
	return RoundInfo{Round: round, Work: work(), DeadlineSec: 120}
}

func uniqueIDs(t *testing.T, ids []int, poolSize int) {
	t.Helper()
	seen := map[int]bool{}
	for _, id := range ids {
		if id < 0 || id >= poolSize {
			t.Fatalf("selected id %d out of pool range %d", id, poolSize)
		}
		if seen[id] {
			t.Fatalf("duplicate selection of client %d", id)
		}
		seen[id] = true
	}
}

func TestRandomSelect(t *testing.T) {
	p := pool(t, 40)
	s := NewRandom(1)
	if s.Name() != "fedavg" {
		t.Fatalf("Name = %q", s.Name())
	}
	ids := s.Select(info(0), p.clients, 10)
	if len(ids) != 10 {
		t.Fatalf("selected %d, want 10", len(ids))
	}
	uniqueIDs(t, ids, 40)
	// k > pool clamps.
	if got := s.Select(info(0), p.clients, 100); len(got) != 40 {
		t.Fatalf("overselect returned %d, want 40", len(got))
	}
}

func TestRandomIsUnbiasedOverRounds(t *testing.T) {
	p := pool(t, 30)
	s := NewRandom(2)
	counts := make([]int, 30)
	for r := 0; r < 300; r++ {
		for _, id := range s.SelectLazy(info(r), p, 10) {
			counts[id]++
		}
	}
	// Every client should be selected a healthy number of times (about
	// 100 each for a client that is always available).
	for id, c := range counts {
		if c < 50 {
			t.Fatalf("random selection starved client %d (%d selections)", id, c)
		}
	}
}

func TestOortSelectBasics(t *testing.T) {
	p := pool(t, 40)
	s := NewOort(OortConfig{Seed: 3})
	if s.Name() != "oort" {
		t.Fatalf("Name = %q", s.Name())
	}
	ids := s.SelectLazy(info(0), p, 12)
	if len(ids) != 12 {
		t.Fatalf("selected %d, want 12", len(ids))
	}
	checkSelection(t, ids, p, 0, 12)
}

func TestOortPrefersFastHighUtilityClients(t *testing.T) {
	p := pool(t, 20)
	s := NewOort(OortConfig{Seed: 4, ExploreFrac: 0.0001})
	// Feed feedback: clients 0-4 fast + useful; 5-9 slow; 10-19 drop out.
	for id := 0; id < 20; id++ {
		fb := Feedback{ClientID: id, Round: 0, StatUtility: 1}
		switch {
		case id < 5:
			fb.Outcome = device.Outcome{Completed: true, Cost: device.Cost{TotalSeconds: 10}}
			fb.StatUtility = 2
		case id < 10:
			fb.Outcome = device.Outcome{Completed: true, Cost: device.Cost{TotalSeconds: 500}}
		default:
			fb.Outcome = device.Outcome{Completed: false, Reason: device.DropDeadline,
				Cost: device.Cost{TotalSeconds: 120}}
		}
		s.Observe(fb)
		s.Observe(fb) // repeat to settle the EMA and failure counts
	}
	counts := make([]int, 20)
	for r := 0; r < 50; r++ {
		for _, id := range s.SelectLazy(info(r), p, 5) {
			counts[id]++
		}
	}
	fast, dropped := 0, 0
	for id := 0; id < 5; id++ {
		fast += counts[id]
	}
	for id := 10; id < 20; id++ {
		dropped += counts[id]
	}
	if fast <= dropped {
		t.Fatalf("Oort should prefer fast clients: fast=%d dropped=%d", fast, dropped)
	}
}

func TestOortExploresUntriedClients(t *testing.T) {
	p := pool(t, 30)
	s := NewOort(OortConfig{Seed: 5, ExploreFrac: 0.5})
	// Mark half the pool as tried.
	for id := 0; id < 15; id++ {
		s.Observe(Feedback{ClientID: id,
			Outcome: device.Outcome{Completed: true, Cost: device.Cost{TotalSeconds: 10}}, StatUtility: 1})
	}
	ids := s.SelectLazy(info(1), p, 10)
	untried := 0
	for _, id := range ids {
		if id >= 15 {
			untried++
		}
	}
	if untried < 3 {
		t.Fatalf("Oort explored only %d untried clients with ExploreFrac=0.5", untried)
	}
}

func TestREFLSelectBasics(t *testing.T) {
	p := pool(t, 40)
	s := NewREFL(REFLConfig{Seed: 6})
	if s.Name() != "refl" {
		t.Fatalf("Name = %q", s.Name())
	}
	ids := s.SelectLazy(info(0), p, 10)
	if len(ids) != 10 {
		t.Fatalf("selected %d, want 10", len(ids))
	}
	checkSelection(t, ids, p, 0, 10)
}

func TestREFLPrefersFastClients(t *testing.T) {
	p := pool(t, 20)
	s := NewREFL(REFLConfig{Seed: 7})
	for id := 0; id < 20; id++ {
		secs := 10.0
		if id >= 10 {
			secs = 1000
		}
		s.Observe(Feedback{ClientID: id, Round: 0,
			Outcome: device.Outcome{Completed: true, Cost: device.Cost{TotalSeconds: secs}}})
	}
	counts := make([]int, 20)
	for r := 1; r < 40; r++ {
		for _, id := range s.SelectLazy(info(r), p, 5) {
			counts[id]++
		}
	}
	fast, slow := 0, 0
	for id := 0; id < 10; id++ {
		fast += counts[id]
	}
	for id := 10; id < 20; id++ {
		slow += counts[id]
	}
	if fast <= slow*2 {
		t.Fatalf("REFL should strongly prefer fast clients: fast=%d slow=%d", fast, slow)
	}
}

func TestREFLSkipsPredictedUnavailable(t *testing.T) {
	p := pool(t, 50)
	s := NewREFL(REFLConfig{Seed: 8, Window: 4, AvailThreshold: 0.75})
	// Warm the availability history across several rounds.
	for r := 0; r < 6; r++ {
		s.SelectLazy(info(r), p, 10)
	}
	// Find a client whose recent history is mostly unavailable.
	var offline *device.Client
	for _, c := range p.clients {
		h := s.history[c.ID]
		n := 0
		for _, a := range h {
			if a {
				n++
			}
		}
		if len(h) > 0 && float64(n)/float64(len(h)) < 0.5 {
			offline = c
			break
		}
	}
	if offline == nil {
		t.Skip("no mostly-offline client in this seed")
	}
	if s.predictAvailable(offline.ID) {
		t.Fatal("predictAvailable should reject a mostly-offline client")
	}
}

func TestREFLMoreBiasedThanRandom(t *testing.T) {
	// Fig 2a's key claim: REFL excludes a substantial share of the
	// population; random selection does not.
	p := pool(t, 60)
	countNever := func(sel Selector) int {
		counts := make([]int, 60)
		for r := 0; r < 100; r++ {
			ids := sel.SelectLazy(info(r), p, 10)
			for _, id := range ids {
				counts[id]++
				// Feed plausible outcomes so respSecs accumulates.
				secs := device.EstimateResponseSeconds(p.clients[id], r, work())
				sel.Observe(Feedback{ClientID: id, Round: r,
					Outcome: device.Outcome{Completed: true, Cost: device.Cost{TotalSeconds: secs}}})
			}
		}
		never := 0
		for _, c := range counts {
			if c == 0 {
				never++
			}
		}
		return never
	}
	neverRandom := countNever(NewRandom(9))
	neverREFL := countNever(NewREFL(REFLConfig{Seed: 9}))
	if neverREFL <= neverRandom {
		t.Fatalf("REFL should exclude more clients than random: refl=%d random=%d",
			neverREFL, neverRandom)
	}
}

func TestClamp01(t *testing.T) {
	if clamp01(-1) != 0 || clamp01(2) != 1 || clamp01(0.5) != 0.5 {
		t.Fatal("clamp01 broken")
	}
}
