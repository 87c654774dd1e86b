package fl

import (
	"fmt"
	"math/rand"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/metrics"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/rngstate"
	"floatfl/internal/selection"
	"floatfl/internal/tensor"
)

// syncJob is one selected client's dispatch record: everything decided and
// resolved on the single-threaded pass before the round fans out. The
// client pointer and shard slices are acquired (pinned) from the
// population at dispatch, so workers never touch the provider caches — the
// cache's hit/miss schedule, like every other order-sensitive effect,
// belongs to the sequential passes.
type syncJob struct {
	id        int
	tech      opt.Technique
	client    *device.Client
	train     []nn.Sample
	localTest []nn.Sample
}

// syncResult is what one worker produces for its slot. Workers write only
// their own slot; the collector reads all slots in dispatch order.
type syncResult struct {
	out     device.Outcome
	lt      localTrainResult
	trained bool
	err     error
}

// RunSync executes synchronous federated training over the classic dense
// federation/population pair. It is a thin wrapper over RunSyncPop with an
// eager population.
func RunSync(fed *data.Federation, pop []*device.Client, sel selection.Selector,
	ctrl Controller, cfg Config) (*Result, error) {

	c := cfg.withDefaults()
	if err := c.validate(); err != nil {
		return nil, err
	}
	if len(pop) == 0 {
		return nil, fmt.Errorf("fl: population is empty")
	}
	p, err := population.WrapEager(fed, pop)
	if err != nil {
		return nil, err
	}
	return RunSyncPop(p, sel, ctrl, cfg)
}

// RunSyncPop executes synchronous federated training: each round the
// selector picks ClientsPerRound clients, every selected client trains
// locally under the controller's chosen technique, completions are
// FedAvg-aggregated, and the round's wall clock is the slowest participant
// (or the deadline when anyone timed out). This is the engine behind
// FedAvg, Oort, and REFL runs, with or without FLOAT.
//
// Each round runs in three phases: a sequential dispatch pass (selection,
// client/shard acquisition, resource snapshot + controller decision per
// client, in selection order), a parallel fan-out (device.Execute +
// trainLocal against a snapshot of the global model, Config.Parallelism
// workers), and a sequential collect pass that applies deltas, ledger
// records, selector feedback, and controller feedback in selection order,
// then releases the round's clients. The fan-out schedule cannot influence
// the results, so any Parallelism produces bit-identical output.
//
// The selector probes O(selected) clients through the population instead
// of scanning it, so with a lazy population the memory per round is
// bounded by the provider cache capacity plus the selected set.
func RunSyncPop(p *population.Population, sel selection.Selector,
	ctrl Controller, cfg Config) (*Result, error) {

	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := p.NumClients()
	if n == 0 {
		return nil, fmt.Errorf("fl: population is empty")
	}
	spec, err := nn.LookupSpec(cfg.Arch)
	if err != nil {
		return nil, err
	}
	profile := p.Profile()
	src := rngstate.New(cfg.Seed)
	rng := rand.New(src)
	global, err := nn.NewModel(cfg.Arch, profile.Dim, profile.Classes, rng)
	if err != nil {
		return nil, err
	}
	if err := setModelBackend(global, cfg.Backend); err != nil {
		return nil, err
	}

	refWork := workSpecFor(spec, p.MeanShardSize(), cfg.Epochs)

	deadline := cfg.DeadlineSec
	if deadline <= 0 {
		deadline = deadlineFromEstimates(p.CleanResponseEstimates(refWork), cfg.DeadlinePercentile)
	}

	res := &Result{
		Algorithm:   sel.Name(),
		Controller:  ctrl.Name(),
		Ledger:      metrics.NewLedger(n),
		DeadlineSec: deadline,
	}
	// hfDiff tracks the latest deadline-difference human feedback per
	// client — sparse, because a million-client run only ever touches the
	// participants.
	hfDiff := make(map[int]float64)

	// Reusable per-worker training contexts and per-slot delta buffers:
	// grown once, then every steady-state client round allocates nothing.
	pool := newContextPool(global)
	eo := newEngineObs(cfg.Metrics, cfg.Tracer)

	// Checkpoint seam: restore runs against the freshly initialized state
	// above, before the first round; boundary hooks fire at the end of
	// every round — the engine's quiescent point.
	ckState := &syncRunState{
		cfg: cfg, p: p, sel: sel, ctrl: ctrl, global: global, res: res,
		hfDiff: hfDiff, src: src, deadline: deadline,
	}
	startRound := 0
	if cfg.Checkpoint != nil && len(cfg.Checkpoint.Resume) > 0 {
		r, err := ckState.restore(cfg.Checkpoint.Resume)
		if err != nil {
			return nil, fmt.Errorf("fl: resume: %w", err)
		}
		startRound = r
	}
	completed := startRound

	for round := startRound; round < cfg.Rounds; round++ {
		// Virtual time at which this round starts; all spans for the round
		// are anchored to it, so traces never depend on wall clock.
		roundStart := res.WallClockSeconds
		info := selection.RoundInfo{Round: round, Work: refWork, DeadlineSec: deadline}
		// Real FL servers dispatch only to clients that checked in: the
		// selector probes availability itself, an O(selected) walk rather
		// than an O(population) check-in scan. Clients can still drop out
		// mid-round if they go offline after selection.
		var ids []int
		withPhase("select", func() { ids = sel.SelectLazy(info, p, cfg.ClientsPerRound) })
		if len(ids) == 0 {
			completed = round + 1
			sampleRoundTimeline(cfg.Timeline, ctrl, round, res.WallClockSeconds,
				obs.SeriesValue{Name: "round_selected"},
				obs.SeriesValue{Name: "round_completed"},
				obs.SeriesValue{Name: "round_dropped"},
				obs.SeriesValue{Name: "round_wall_seconds"})
			if stop, err := ckState.boundary(completed); err != nil {
				return nil, err
			} else if stop {
				break
			}
			continue
		}
		eo.span(obs.Span{T: roundStart, Kind: "select", Round: round, Client: -1})
		eo.selected.Add(int64(len(ids)))

		// Dispatch pass: acquire (derive + pin) each selected client and
		// its shard, snapshot resources, and let the controller decide, in
		// selection order, before anything executes. All decisions in a
		// round therefore observe controller state as of the round start,
		// and workers receive fully-resolved jobs — they never touch the
		// population caches.
		jobs := make([]syncJob, len(ids))
		for slot, id := range ids {
			c := p.AcquireClient(id)
			shard := p.AcquireShard(id)
			snap := c.ResourcesAt(round)
			jobs[slot] = syncJob{
				id:        id,
				client:    c,
				train:     shard.Train,
				localTest: shard.LocalTest,
				tech:      ctrl.Decide(round, c, snap, hfDiff[id]),
			}
			eo.decide(jobs[slot].tech)
		}
		eo.span(obs.Span{T: roundStart, Kind: "decide", Round: round, Client: -1})
		// Jobs offered per fan-out — deliberately not busy workers, which
		// would vary with Parallelism and break cross-P byte identity.
		eo.fanoutJobs.Observe(float64(len(jobs)))

		// Fan-out: per-client cost-model execution and local training
		// against a frozen snapshot of the global parameters. Concurrent
		// device.Execute calls are safe only across distinct clients, so a
		// duplicate-bearing selection degrades to the sequential schedule.
		par := cfg.Parallelism
		if hasDuplicateIDs(ids) {
			par = 1
		}
		pool.ensure(par, len(jobs))
		// Parameters() is a zero-copy view; it is safe to share across the
		// fan-out because the global model is frozen until applyAggregate.
		globalParams := global.Parameters()
		results := make([]syncResult, len(jobs))
		withPhase("train", func() {
			forEachSlot(len(jobs), par, func(worker, slot int) {
				j := jobs[slot]
				work := workSpecFor(spec, len(j.train), cfg.Epochs)
				out, err := device.Execute(j.client, round, work, j.tech, deadline)
				if err != nil {
					results[slot].err = err
					return
				}
				results[slot].out = out
				if !out.Completed {
					return
				}
				eo.trainCalls.Inc()
				lt, err := trainLocal(pool.ctx(worker), pool.delta(slot), global,
					globalParams, j.train, j.localTest, j.tech, cfg, round, j.id)
				if err != nil {
					results[slot].err = err
					return
				}
				results[slot].lt = lt
				results[slot].trained = true
			})
		})

		// Collect pass: apply every order-sensitive side effect in
		// selection order on this goroutine. Ledger, selector, controller,
		// and logger stay single-threaded by construction.
		var deltas []tensor.Vector
		var weights []float64
		var roundWall float64
		anyTimeout := false
		for slot, j := range jobs {
			r := results[slot]
			if r.err != nil {
				return nil, r.err
			}
			out := r.out
			res.Ledger.Record(j.id, j.tech, out)
			eo.dev.Record(out)
			eo.clientSpans(roundStart, round, j.id, j.tech, out)
			if out.Reason == device.DropDeadline {
				anyTimeout = true
				hfDiff[j.id] = out.DeadlineDiff
			} else if out.Completed {
				hfDiff[j.id] = 0
			}

			var statUtil, accImprove float64
			if r.trained {
				deltas = append(deltas, r.lt.delta)
				weights = append(weights, r.lt.weight)
				statUtil = r.lt.statUtility
				accImprove = r.lt.accImprove
				if out.Cost.TotalSeconds > roundWall {
					roundWall = out.Cost.TotalSeconds
				}
			}
			sel.Observe(selection.Feedback{ClientID: j.id, Round: round, Outcome: out, StatUtility: statUtil})
			ctrl.Feedback(round, j.client, j.tech, out, accImprove)
			cfg.Logger.LogClientRound(clientRoundLog(round, j.id, j.tech, out, accImprove))
		}

		var aggErr error
		withPhase("aggregate", func() { aggErr = applyAggregate(global, deltas, weights) })
		if aggErr != nil {
			return nil, aggErr
		}
		// The round's pins are dropped only after every side effect that
		// needs the client instance has run.
		for _, id := range ids {
			p.Release(id)
		}
		if anyTimeout {
			roundWall = deadline
		}
		res.Ledger.WallClockSeconds += roundWall
		res.WallClockSeconds += roundWall
		eo.span(obs.Span{T: roundStart + roundWall, Kind: "aggregate", Round: round, Client: -1})
		eo.rounds.Inc()
		eo.completed.Add(int64(len(deltas)))
		eo.dropped.Add(int64(len(ids) - len(deltas)))
		eo.roundWall.Observe(roundWall)

		summary := RoundSummaryLog{
			Round:       round,
			Selected:    len(ids),
			Completed:   len(deltas),
			Dropped:     len(ids) - len(deltas),
			WallSeconds: roundWall,
		}
		if (round+1)%cfg.EvalEvery == 0 || round == cfg.Rounds-1 {
			acc, _ := global.Evaluate(p.GlobalTest())
			res.GlobalAccHistory = append(res.GlobalAccHistory, acc)
			res.EvalRounds = append(res.EvalRounds, round+1)
			summary.GlobalAcc = &acc
			eo.evals.Inc()
			eo.globalAcc.Set(acc)
		}
		cfg.Logger.LogRoundSummary(summary)
		// Publish population-cache telemetry at this schedule-determined
		// point so exposition bytes never depend on Parallelism.
		p.FlushObs()
		completed = round + 1
		// Sample before the checkpoint hook so every snapshot carries the
		// timeline through its own round — the stitching invariant.
		sampleRoundTimeline(cfg.Timeline, ctrl, round, res.WallClockSeconds,
			obs.SeriesValue{Name: "round_selected", Value: float64(len(ids))},
			obs.SeriesValue{Name: "round_completed", Value: float64(len(deltas))},
			obs.SeriesValue{Name: "round_dropped", Value: float64(len(ids) - len(deltas))},
			obs.SeriesValue{Name: "round_wall_seconds", Value: roundWall})
		if stop, err := ckState.boundary(completed); err != nil {
			return nil, err
		} else if stop {
			break
		}
	}

	res.CompletedRounds = completed
	res.SimClockSeconds = res.WallClockSeconds
	res.FinalClientAccs = evaluateClientsPop(global, p, cfg.EvalClients)
	res.FinalAccStats = metrics.ComputeAccuracyStats(res.FinalClientAccs)
	res.FinalGlobalAcc, _ = global.Evaluate(p.GlobalTest())
	res.FinalParams = global.Parameters().Clone()
	p.FlushObs()
	return res, nil
}
