package selection

import (
	"math"
	"math/rand"

	"floatfl/internal/rngstate"
)

// OortConfig tunes the Oort selector.
type OortConfig struct {
	// Alpha is the exponent of the system-speed penalty (Oort's default 2).
	Alpha float64
	// ExploreFrac of each round's slots goes to never-tried clients.
	ExploreFrac float64
	// PreferredDurationSec is Oort's developer-preferred round duration T;
	// clients slower than T are penalized by (T/t)^Alpha. Zero derives T
	// from the round deadline and lets the pacer adapt it.
	PreferredDurationSec float64
	// PacerStep is the fraction by which the pacer relaxes or tightens the
	// preferred duration when too few / enough clients beat it (Oort's
	// pacer; default 0.2). Only active when PreferredDurationSec is 0.
	PacerStep float64
	// BlacklistAfter removes a client from exploitation after this many
	// consecutive dropouts (default 4); exploration can still revisit it.
	BlacklistAfter int
	Seed           int64
}

// Oort implements guided participant selection: utility = statistical
// utility × system penalty, with an exploration slice for unseen clients.
// Because utility rewards fast completions, Oort systematically prefers
// efficient clients — the bias Fig. 2a quantifies.
type Oort struct {
	cfg OortConfig
	rng *rand.Rand
	src *rngstate.Source

	statUtil map[int]float64 // EMA of loss-based utility
	respSecs map[int]float64 // EMA of response time
	tried    map[int]bool
	failures map[int]int // consecutive dropouts

	// pacer state: the adaptive preferred duration, and the completion
	// counts of the current pacer window.
	pacerT      float64
	windowOK    int
	windowTotal int
}

// NewOort constructs an Oort selector with sensible defaults for zero
// fields (Alpha 2, ExploreFrac 0.1).
func NewOort(cfg OortConfig) *Oort {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 2
	}
	if cfg.ExploreFrac <= 0 {
		cfg.ExploreFrac = 0.1
	}
	if cfg.PacerStep <= 0 {
		cfg.PacerStep = 0.2
	}
	if cfg.BlacklistAfter <= 0 {
		cfg.BlacklistAfter = 4
	}
	src := rngstate.New(cfg.Seed)
	return &Oort{
		cfg:      cfg,
		rng:      rand.New(src),
		src:      src,
		statUtil: make(map[int]float64),
		respSecs: make(map[int]float64),
		tried:    make(map[int]bool),
		failures: make(map[int]int),
	}
}

// Name implements Selector.
func (o *Oort) Name() string { return "oort" }

// pace adapts the preferred duration like Oort's pacer: if fewer than half
// of the recent participants beat T, relax it; if nearly everyone does,
// tighten it to push for faster rounds. The window resets after each
// adjustment.
func (o *Oort) pace() {
	const window = 20
	if o.windowTotal < window {
		return
	}
	frac := float64(o.windowOK) / float64(o.windowTotal)
	switch {
	case frac < 0.5:
		o.pacerT *= 1 + o.cfg.PacerStep
	case frac > 0.9:
		o.pacerT *= 1 - o.cfg.PacerStep/2
	}
	o.windowOK, o.windowTotal = 0, 0
}

// utility computes Oort's scoring for a known client. Unknown clients get
// a moderate default so they can still be exploited before exploration
// reaches them.
func (o *Oort) utility(id int, preferredSec float64) float64 {
	// Hard blacklist: exploitation skips chronic droppers entirely.
	if o.failures[id] >= o.cfg.BlacklistAfter {
		return math.Inf(-1)
	}
	stat, known := o.statUtil[id]
	if !known {
		stat = 1.0
	}
	u := stat
	if t, ok := o.respSecs[id]; ok && t > preferredSec {
		u *= math.Pow(preferredSec/t, o.cfg.Alpha)
	}
	// Repeated dropouts decay utility sharply even before the blacklist.
	if f := o.failures[id]; f > 0 {
		u *= math.Pow(0.5, float64(f))
	}
	return u
}

// Observe implements Selector.
func (o *Oort) Observe(fb Feedback) {
	o.tried[fb.ClientID] = true
	o.windowTotal++
	if fb.Outcome.Completed && (o.pacerT <= 0 || fb.Outcome.Cost.TotalSeconds <= o.pacerT) {
		o.windowOK++
	}
	const ema = 0.5
	if fb.Outcome.Completed {
		o.failures[fb.ClientID] = 0
		if prev, ok := o.respSecs[fb.ClientID]; ok {
			o.respSecs[fb.ClientID] = ema*fb.Outcome.Cost.TotalSeconds + (1-ema)*prev
		} else {
			o.respSecs[fb.ClientID] = fb.Outcome.Cost.TotalSeconds
		}
		if fb.StatUtility > 0 {
			if prev, ok := o.statUtil[fb.ClientID]; ok {
				o.statUtil[fb.ClientID] = ema*fb.StatUtility + (1-ema)*prev
			} else {
				o.statUtil[fb.ClientID] = fb.StatUtility
			}
		}
	} else {
		o.failures[fb.ClientID]++
		// A dropout is evidence of slowness: penalize the response EMA.
		if prev, ok := o.respSecs[fb.ClientID]; ok {
			o.respSecs[fb.ClientID] = prev * 1.5
		} else {
			o.respSecs[fb.ClientID] = fb.Outcome.Cost.TotalSeconds * 2
		}
	}
}
