package main

import (
	"sync/atomic"
	"time"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/selection"
)

// eventLog records hook timestamps relative to the engine call. The sim
// engines call every hook from their single dispatch/collect goroutine,
// so appends need no lock. A nil *eventLog records nothing.
type eventLog struct {
	t0  time.Time
	evs []event
}

// mark records kind now and returns the timestamp.
func (l *eventLog) mark(kind evKind) time.Time {
	now := wallNow()
	if l != nil {
		l.evs = append(l.evs, event{kind: kind, at: now.Sub(l.t0)})
	}
	return now
}

// callStats accumulates one hooked method's wall time and call count.
// Atomic because the dist server calls its controller from handler
// goroutines.
type callStats struct {
	ns, calls atomic.Int64
}

func (c *callStats) add(d time.Duration) {
	c.ns.Add(int64(d))
	c.calls.Add(1)
}

func (c *callStats) seconds() float64 { return time.Duration(c.ns.Load()).Seconds() }
func (c *callStats) count() float64   { return float64(c.calls.Load()) }

// engineController is the method set the engines reach on core.Float:
// the Controller itself plus the two optional interfaces they
// type-assert. A wrapper that dropped either would silently shrink
// checkpoints or timelines, so the wrapper below requires and forwards
// both.
type engineController interface {
	fl.Controller
	checkpoint.Stateful
	fl.TimelineContributor
}

// tracedController times Decide and Feedback around an engineController.
type tracedController struct {
	inner            engineController
	log              *eventLog
	decide, feedback callStats
}

var _ engineController = (*tracedController)(nil)

// Name implements fl.Controller; the name is part of the checkpoint
// fingerprint, so it is the inner controller's.
func (c *tracedController) Name() string { return c.inner.Name() }

// Decide implements fl.Controller.
func (c *tracedController) Decide(round int, cl *device.Client, res device.Resources, hf float64) opt.Technique {
	start := c.log.mark(evDecideIn)
	tech := c.inner.Decide(round, cl, res, hf)
	c.decide.add(c.log.mark(evDecideOut).Sub(start))
	return tech
}

// Feedback implements fl.Controller.
func (c *tracedController) Feedback(round int, cl *device.Client, tech opt.Technique, out device.Outcome, accImprove float64) {
	start := c.log.mark(evFeedbackIn)
	c.inner.Feedback(round, cl, tech, out, accImprove)
	c.feedback.add(c.log.mark(evFeedbackOut).Sub(start))
}

// CheckpointState implements checkpoint.Stateful.
func (c *tracedController) CheckpointState() ([]byte, error) { return c.inner.CheckpointState() }

// RestoreCheckpoint implements checkpoint.Stateful.
func (c *tracedController) RestoreCheckpoint(data []byte) error {
	return c.inner.RestoreCheckpoint(data)
}

// TimelineSeries implements fl.TimelineContributor.
func (c *tracedController) TimelineSeries() []obs.SeriesValue {
	c.log.mark(evTimelineIn)
	defer c.log.mark(evTimelineOut)
	return c.inner.TimelineSeries()
}

// engineSelector is the method set the sync engine reaches on a lazy
// selector: LazySelector plus checkpoint.Stateful.
type engineSelector interface {
	selection.LazySelector
	checkpoint.Stateful
}

// tracedSelector times SelectLazy and Observe around an engineSelector.
type tracedSelector struct {
	inner        engineSelector
	log          *eventLog
	sel, observe callStats
}

var _ engineSelector = (*tracedSelector)(nil)

// Name implements selection.Selector.
func (s *tracedSelector) Name() string { return s.inner.Name() }

// Select implements selection.Selector (the eager path; unused by the
// lazy workload, forwarded for completeness).
func (s *tracedSelector) Select(info selection.RoundInfo, pool []*device.Client, k int) []int {
	return s.inner.Select(info, pool, k)
}

// SelectLazy implements selection.LazySelector.
func (s *tracedSelector) SelectLazy(info selection.RoundInfo, view selection.PopulationView, k int) []int {
	start := s.log.mark(evSelectIn)
	ids := s.inner.SelectLazy(info, view, k)
	s.sel.add(s.log.mark(evSelectOut).Sub(start))
	return ids
}

// Observe implements selection.Selector.
func (s *tracedSelector) Observe(fb selection.Feedback) {
	start := s.log.mark(evObserveIn)
	s.inner.Observe(fb)
	s.observe.add(s.log.mark(evObserveOut).Sub(start))
}

// CheckpointState implements checkpoint.Stateful.
func (s *tracedSelector) CheckpointState() ([]byte, error) { return s.inner.CheckpointState() }

// RestoreCheckpoint implements checkpoint.Stateful.
func (s *tracedSelector) RestoreCheckpoint(data []byte) error {
	return s.inner.RestoreCheckpoint(data)
}

// tracedLogger marks the engines' per-client and per-round log events.
type tracedLogger struct{ log *eventLog }

// LogClientRound implements fl.RoundLogger.
func (l tracedLogger) LogClientRound(fl.ClientRoundLog) { l.log.mark(evLogClient) }

// LogRoundSummary implements fl.RoundLogger.
func (l tracedLogger) LogRoundSummary(fl.RoundSummaryLog) { l.log.mark(evSummary) }

// snapshotSink keeps the run's checkpoint blobs in memory: their count,
// their total size and the last one, which the output checks decode.
type snapshotSink struct {
	log   *eventLog
	count int
	bytes int64
	last  []byte
}

func (s *snapshotSink) store(blob []byte) error {
	s.log.mark(evSinkIn)
	s.count++
	s.bytes += int64(len(blob))
	s.last = blob
	s.log.mark(evSinkOut)
	return nil
}

// stepClock times the engine's steps (sync rounds, async aggregation
// barriers) from the checkpoint Stop poll, which both engines call once
// at every quiescent boundary. It never asks the engine to stop.
type stepClock struct {
	log   *eventLog
	last  time.Time
	steps []time.Duration
}

func (c *stepClock) poll() bool {
	now := c.log.mark(evBoundary)
	c.steps = append(c.steps, now.Sub(c.last))
	c.last = now
	return false
}
