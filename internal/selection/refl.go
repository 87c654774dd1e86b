package selection

import (
	"math"
	"math/rand"

	"floatfl/internal/rngstate"
)

// REFLConfig tunes the REFL selector.
type REFLConfig struct {
	// Window is the number of recent availability observations used to
	// predict the next round's availability.
	Window int
	// AvailThreshold is the fraction of recent observations that must be
	// "available" for the client to be predicted available next round.
	AvailThreshold float64
	Seed           int64
}

// REFL models the paper's characterization of REFL (EuroSys '23): it
// observes each client's availability at every round, predicts the next
// availability window from that history, and among predicted-available
// clients prefers the fastest ones (lowest observed response time),
// falling back to least-recently-participated for unseen clients.
//
// Its two failure modes — both demonstrated by the paper — are inherent to
// the design: (1) the one-dimensional window prediction collapses when
// availability depends on dynamic resource consumption, and (2) preferring
// fast clients excludes a large share of the population entirely.
type REFL struct {
	cfg REFLConfig
	rng *rand.Rand
	src *rngstate.Source

	// history[id] is a ring of recent availability observations.
	history map[int][]bool
	// respSecs is an EMA of observed response times.
	respSecs map[int]float64
	lastPart map[int]int // round of last participation
}

// NewREFL constructs a REFL selector (Window 8, AvailThreshold 0.6 by
// default).
func NewREFL(cfg REFLConfig) *REFL {
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.AvailThreshold <= 0 {
		cfg.AvailThreshold = 0.6
	}
	src := rngstate.New(cfg.Seed)
	return &REFL{
		cfg:      cfg,
		rng:      rand.New(src),
		src:      src,
		history:  make(map[int][]bool),
		respSecs: make(map[int]float64),
		lastPart: make(map[int]int),
	}
}

// Name implements Selector.
func (r *REFL) Name() string { return "refl" }

// predictAvailable is REFL's window predictor. It combines the base-rate
// test (available in at least AvailThreshold of recent observations) with
// a window-persistence estimate: from the observed ON→ON transition
// frequency it predicts whether a currently-available client's window
// will persist through the next round. Both estimates share the paper's
// criticized premise — that availability is a one-dimensional window
// whose future can be read off recent history.
func (r *REFL) predictAvailable(id int) bool {
	h := r.history[id]
	if len(h) == 0 {
		return true // optimistic about unseen clients
	}
	n := 0
	for _, a := range h {
		if a {
			n++
		}
	}
	if float64(n)/float64(len(h)) < r.cfg.AvailThreshold {
		return false
	}
	// Persistence: estimate P(on_{t+1} | on_t) from adjacent pairs; only
	// trust windows that historically persist.
	onPairs, onPersist := 0, 0
	for i := 1; i < len(h); i++ {
		if h[i-1] {
			onPairs++
			if h[i] {
				onPersist++
			}
		}
	}
	if onPairs == 0 {
		return h[len(h)-1]
	}
	persist := float64(onPersist) / float64(onPairs)
	return h[len(h)-1] && persist >= 0.5
}

// Observe implements Selector.
func (r *REFL) Observe(fb Feedback) {
	r.lastPart[fb.ClientID] = fb.Round
	const ema = 0.5
	secs := fb.Outcome.Cost.TotalSeconds
	if !fb.Outcome.Completed {
		// Treat a dropout as a very slow response.
		secs = math.Max(secs*2, 1)
	}
	if prev, ok := r.respSecs[fb.ClientID]; ok {
		r.respSecs[fb.ClientID] = ema*secs + (1-ema)*prev
	} else {
		r.respSecs[fb.ClientID] = secs
	}
}
