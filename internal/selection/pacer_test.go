package selection

import (
	"math"
	"testing"

	"floatfl/internal/device"
)

func TestOortPacerRelaxesWhenClientsMiss(t *testing.T) {
	o := NewOort(OortConfig{Seed: 1})
	p := pool(t, 10)
	o.SelectLazy(info(0), p, 5) // initializes pacerT from the deadline
	t0 := o.pacerT
	if t0 <= 0 {
		t.Fatal("pacer not initialized")
	}
	// Feed a full window of completions slower than the target.
	for i := 0; i < 25; i++ {
		o.Observe(Feedback{ClientID: i % 10, Outcome: device.Outcome{
			Completed: true, Cost: device.Cost{TotalSeconds: t0 * 3},
		}})
	}
	o.SelectLazy(info(1), p, 5)
	if o.pacerT <= t0 {
		t.Fatalf("pacer did not relax: %v -> %v", t0, o.pacerT)
	}
}

func TestOortPacerTightensWhenEveryoneBeatsIt(t *testing.T) {
	o := NewOort(OortConfig{Seed: 2})
	p := pool(t, 10)
	o.SelectLazy(info(0), p, 5)
	t0 := o.pacerT
	for i := 0; i < 25; i++ {
		o.Observe(Feedback{ClientID: i % 10, Outcome: device.Outcome{
			Completed: true, Cost: device.Cost{TotalSeconds: t0 / 10},
		}})
	}
	o.SelectLazy(info(1), p, 5)
	if o.pacerT >= t0 {
		t.Fatalf("pacer did not tighten: %v -> %v", t0, o.pacerT)
	}
}

func TestOortExplicitPreferredDisablesPacer(t *testing.T) {
	o := NewOort(OortConfig{Seed: 3, PreferredDurationSec: 100})
	p := pool(t, 10)
	for i := 0; i < 30; i++ {
		o.Observe(Feedback{ClientID: i % 10, Outcome: device.Outcome{
			Completed: true, Cost: device.Cost{TotalSeconds: 1000},
		}})
	}
	o.SelectLazy(info(1), p, 5)
	if o.pacerT != 0 {
		t.Fatalf("explicit preferred duration should keep the pacer off, pacerT=%v", o.pacerT)
	}
}

func TestOortBlacklistExcludesChronicDroppers(t *testing.T) {
	o := NewOort(OortConfig{Seed: 4, BlacklistAfter: 3, ExploreFrac: 0.0001})
	for i := 0; i < 3; i++ {
		o.Observe(Feedback{ClientID: 0, Outcome: device.Outcome{Completed: false,
			Cost: device.Cost{TotalSeconds: 100}}})
	}
	if !math.IsInf(o.utility(0, 60), -1) {
		t.Fatal("blacklisted client should have -inf utility")
	}
	// A completion resets the streak.
	o.Observe(Feedback{ClientID: 0, Outcome: device.Outcome{Completed: true,
		Cost: device.Cost{TotalSeconds: 10}}})
	if math.IsInf(o.utility(0, 60), -1) {
		t.Fatal("completion should lift the blacklist")
	}
}

func TestREFLPersistencePredictor(t *testing.T) {
	r := NewREFL(REFLConfig{Seed: 5, Window: 8, AvailThreshold: 0.5})
	// Flapping client: ON half the time but never two rounds in a row —
	// base rate passes, persistence fails.
	r.history[1] = []bool{true, false, true, false, true, false, true, false}
	if r.predictAvailable(1) {
		t.Fatal("flapping client should be predicted unavailable")
	}
	// Stable client: long ON runs, currently ON.
	r.history[2] = []bool{true, true, true, true, false, true, true, true}
	if !r.predictAvailable(2) {
		t.Fatal("stable ON client should be predicted available")
	}
	// Currently OFF client fails the last-observation gate.
	r.history[3] = []bool{true, true, true, true, true, true, true, false}
	if r.predictAvailable(3) {
		t.Fatal("currently-OFF client should be predicted unavailable")
	}
}

func TestOortSelectSkipsBlacklisted(t *testing.T) {
	p := pool(t, 10)
	o := NewOort(OortConfig{Seed: 6, BlacklistAfter: 2, ExploreFrac: 0.0001})
	// Blacklist clients 0-4; mark the rest as good.
	for id := 0; id < 10; id++ {
		for rep := 0; rep < 2; rep++ {
			out := device.Outcome{Completed: id >= 5, Cost: device.Cost{TotalSeconds: 10}}
			if !out.Completed {
				out.Reason = device.DropDeadline
			}
			o.Observe(Feedback{ClientID: id, Outcome: out})
		}
	}
	ids := o.SelectLazy(info(1), p, 5)
	picked := make(map[int]bool)
	for _, id := range ids {
		picked[id] = true
	}
	for _, id := range ids {
		if id >= 5 {
			continue
		}
		for good := 5; good < 10; good++ {
			if !picked[good] && p.clients[good].ResourcesAt(1).Available {
				t.Fatalf("blacklisted client %d selected while good client %d was available", id, good)
			}
		}
	}
	// When only blacklisted clients can fill the round, they are used: a
	// request for the whole pool returns every available client.
	ids = o.SelectLazy(info(2), p, 10)
	if want := availableAt(p, 2); len(ids) != want {
		t.Fatalf("fallback did not fill the round: %d selected, %d available", len(ids), want)
	}
}
