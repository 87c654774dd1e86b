package main

import "time"

// evKind names one hook timestamp the traced sim run records. Every hook
// is a public seam of the fl engines, wrapped from this package: the
// controller (Decide, Feedback, TimelineSeries), the lazy selector
// (SelectLazy, Observe), the round logger, and the checkpoint Stop poll
// and Sink. evStart and evReturn bracket the engine call itself.
type evKind uint8

const (
	evStart evKind = iota
	evSelectIn
	evSelectOut
	evDecideIn
	evDecideOut
	evObserveIn
	evObserveOut
	evFeedbackIn
	evFeedbackOut
	evLogClient
	evSummary
	evTimelineIn
	evTimelineOut
	evBoundary // CheckpointConfig.Stop poll, once per round or barrier
	evSinkIn
	evSinkOut
	evReturn
)

// phase is one fl round phase the engine wall time is cut into.
type phase uint8

const (
	phPreRound phase = iota
	phSelect
	phDispatch
	phTrain
	phCollect
	phAggregate
	phBoundary
	phFinalEval
	numPhases
)

var phaseNames = [numPhases]string{
	phPreRound:  "pre_round",
	phSelect:    "select",
	phDispatch:  "dispatch",
	phTrain:     "train",
	phCollect:   "collect",
	phAggregate: "aggregate",
	phBoundary:  "boundary",
	phFinalEval: "final_eval",
}

type transition struct{ from, to evKind }

// phaseTable names the phase every interval between two consecutive hook
// timestamps belongs to. It encodes the engines' hook order:
//
//	sync:  SelectLazy, Decide×k, [fan-out], (Observe, Feedback, Log)×k,
//	       [aggregate + eval], Summary, TimelineSeries, Stop, [Sink]
//	async: (Decide between heap pops)…, [fan-out at the barrier],
//	       (Feedback, Log)×buffer, [aggregate + eval], Stop, [Sink]
//
// and both end in the final per-client eval sweep before returning. An
// interval whose transition is missing here is unaccounted time.
var phaseTable = map[transition]phase{
	// Model init, MeanShardSize and the deadline estimate.
	{evStart, evSelectIn}: phPreRound,
	{evStart, evDecideIn}: phPreRound,

	{evSelectIn, evSelectOut}: phSelect,

	// The dispatch pass: acquire and derive each client, then Decide.
	{evSelectOut, evDecideIn}: phDispatch,
	{evDecideIn, evDecideOut}: phDispatch,
	{evDecideOut, evDecideIn}: phDispatch,
	{evBoundary, evDecideIn}:  phDispatch,
	{evSinkOut, evDecideIn}:   phDispatch,

	// From the last Decide to the first collect hook: the fan-out.
	{evDecideOut, evObserveIn}:  phTrain,
	{evDecideOut, evFeedbackIn}: phTrain,

	// The collect pass, in dispatch order.
	{evObserveIn, evObserveOut}:   phCollect,
	{evObserveOut, evFeedbackIn}:  phCollect,
	{evFeedbackIn, evFeedbackOut}: phCollect,
	{evFeedbackOut, evLogClient}:  phCollect,
	{evLogClient, evObserveIn}:    phCollect,
	{evLogClient, evFeedbackIn}:   phCollect,

	// Aggregation plus the periodic global eval.
	{evLogClient, evSummary}:  phAggregate,
	{evLogClient, evBoundary}: phAggregate,

	// Obs flush, timeline sample, checkpoint poll and snapshot.
	{evSummary, evTimelineIn}:     phBoundary,
	{evSummary, evBoundary}:       phBoundary,
	{evTimelineIn, evTimelineOut}: phBoundary,
	{evTimelineOut, evBoundary}:   phBoundary,
	{evBoundary, evSinkIn}:        phBoundary,
	{evSinkIn, evSinkOut}:         phBoundary,
	{evBoundary, evSelectIn}:      phBoundary,
	{evSinkOut, evSelectIn}:       phBoundary,

	// The final per-client eval sweep after the last boundary.
	{evBoundary, evReturn}: phFinalEval,
	{evSinkOut, evReturn}:  phFinalEval,
}

// event is one hook timestamp, as an offset from the engine call.
type event struct {
	kind evKind
	at   time.Duration
}

// cutPhases attributes every interval between consecutive events to its
// phase. Intervals whose transition phaseTable does not know are summed
// into unaccounted, so a hook order the table does not expect shows up as
// a number instead of being silently assigned.
func cutPhases(evs []event) (byPhase [numPhases]time.Duration, unaccounted time.Duration) {
	for i := 1; i < len(evs); i++ {
		d := evs[i].at - evs[i-1].at
		if ph, ok := phaseTable[transition{evs[i-1].kind, evs[i].kind}]; ok {
			byPhase[ph] += d
		} else {
			unaccounted += d
		}
	}
	return byPhase, unaccounted
}

// sinkIntervals sums the time from each boundary poll to the Sink call
// that follows it: the snapshot capture and encode.
func sinkIntervals(evs []event) time.Duration {
	var total time.Duration
	for i := 1; i < len(evs); i++ {
		if evs[i-1].kind == evBoundary && evs[i].kind == evSinkIn {
			total += evs[i].at - evs[i-1].at
		}
	}
	return total
}
