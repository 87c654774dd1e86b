package fl

import (
	"container/heap"
	"fmt"
	"math"
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

// asyncTask is one in-flight client execution in the FedBuff simulation.
// The client pointer and shard slices are pinned at launch and released
// when the task's barrier event is delivered (or in the end-of-run drain),
// so eviction can never invalidate an in-flight task.
type asyncTask struct {
	clientID     int
	client       *device.Client
	train        []nn.Sample
	localTest    []nn.Sample
	startVersion int
	finishAt     float64
	outcome      device.Outcome
	tech         opt.Technique
}

type taskHeap []asyncTask

func (h taskHeap) Len() int            { return len(h) }
func (h taskHeap) Less(i, j int) bool  { return h[i].finishAt < h[j].finishAt }
func (h taskHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x interface{}) { *h = append(*h, x.(asyncTask)) }
func (h *taskHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// asyncTrainJob is one buffered local-training job awaiting the next
// aggregation barrier. Everything it needs is captured at pop time (the
// version snapshot it trains against, the version used as its seed round,
// its staleness discount, the still-pinned shard slices), so the job is a
// pure function and can run on any worker.
type asyncTrainJob struct {
	clientID    int
	tech        opt.Technique
	round       int // model version at pop time; seeds the client's RNG streams
	staleness   int
	startParams tensor.Vector
	train       []nn.Sample
	localTest   []nn.Sample

	lt  localTrainResult
	err error
}

// asyncEvent records one popped task's deferred callbacks. Controller
// feedback and logging for all tasks popped since the previous barrier are
// delivered in pop order at the barrier, after the batch's training jobs
// have finished — keeping both single-threaded and giving every
// Parallelism the same delivery schedule. The client pin taken at launch
// is released right after the event is delivered.
type asyncEvent struct {
	version  int
	clientID int
	client   *device.Client
	tech     opt.Technique
	out      device.Outcome
	trainIdx int // index into the pending job batch, -1 when the task produced no update
}

// isTooStale implements FedBuff's staleness admission rule: an update is
// usable only while its base version snapshot is still retained and its
// staleness is at most the cap — a staleness of exactly StalenessCap is
// the last admissible value (the boundary is inclusive).
func isTooStale(staleness, cap int, haveVersion bool) bool {
	return !haveVersion || staleness > cap
}

// evictStaleVersion drops the one snapshot that just aged out of the
// admissible window after advancing to `version`: any update based on it
// would have staleness > cap by the time the next aggregation completes.
// The retained window is exactly {version-cap .. version}.
func evictStaleVersion(versions map[int]tensor.Vector, version, cap int) {
	delete(versions, version-cap-1)
}

// RunAsync executes FedBuff over the classic dense federation/population
// pair. It is a thin wrapper over RunAsyncPop with an eager population.
func RunAsync(fed *data.Federation, pop []*device.Client, ctrl Controller, cfg Config) (*Result, error) {
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
	return RunAsyncPop(p, ctrl, cfg)
}

// RunAsyncPop executes FedBuff: Concurrency clients train simultaneously
// and asynchronously against the model version they started from;
// completed updates enter a buffer and every BufferK arrivals are
// aggregated with staleness-discounted weights. FedBuff has no hard round
// deadline — tasks run until a generous timeout — which is why it
// tolerates dropouts but burns far more resources than synchronous FL
// (Fig 2b, Fig 12).
//
// The discrete-event loop (launch decisions, cost-model execution, pops,
// ledger records) stays on one goroutine; the expensive part — local
// training of buffered updates — fans out across Config.Parallelism
// workers at each aggregation barrier, where the whole batch is collected
// in pop order. Controller feedback is therefore batch-delivered at
// barriers; launch-time decisions observe controller state as of the last
// aggregation, identically for every Parallelism.
//
// Each launch pass walks a fresh random permutation of the population
// under a probe budget of O(concurrency), deriving only the clients it
// actually considers, so with a lazy population resident state stays
// bounded by the provider caches plus the in-flight set.
func RunAsyncPop(p *population.Population, ctrl Controller, cfg Config) (*Result, error) {
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

	// FedBuff is lenient: the per-task timeout is twice the synchronous
	// auto deadline (explicit DeadlineSec overrides).
	timeout := cfg.DeadlineSec
	if timeout <= 0 {
		timeout = 2 * deadlineFromEstimates(p.CleanResponseEstimates(refWork), cfg.DeadlinePercentile)
	}
	// Traces advance one step per timeout interval of virtual time.
	stepSec := timeout
	stepOf := func(now float64) int { return int(now / stepSec) }

	res := &Result{
		Algorithm:   "fedbuff",
		Controller:  ctrl.Name(),
		Ledger:      metrics.NewLedger(n),
		DeadlineSec: timeout,
	}
	hfDiff := make(map[int]float64)
	eo := newEngineObs(cfg.Metrics, cfg.Tracer)

	// Version-indexed snapshots of global parameters for stale training.
	// Snapshot vectors are immutable once stored: pending training jobs
	// read them concurrently. Parameters() aliases the (mutating) global
	// model, so every snapshot must be cloned.
	versions := map[int]tensor.Vector{0: global.Parameters().Clone()}
	version := 0

	inFlight := make(map[int]bool, cfg.Concurrency)
	var tasks taskHeap
	heap.Init(&tasks)
	now := 0.0

	// launchOne pins client id, runs the cost model, and pushes the task.
	launchOne := func(id int) error {
		c := p.AcquireClient(id)
		shard := p.AcquireShard(id)
		step := stepOf(now)
		snap := c.ResourcesAt(step)
		tech := ctrl.Decide(version, c, snap, hfDiff[id])
		eo.decide(tech)
		eo.selected.Inc()
		work := workSpecFor(spec, len(shard.Train), cfg.Epochs)
		out, err := device.Execute(c, step, work, tech, timeout)
		if err != nil {
			p.Release(id)
			return err
		}
		dur := out.Cost.TotalSeconds
		if dur <= 0 {
			dur = 1 // unavailability is detected after a short ping
		}
		inFlight[id] = true
		heap.Push(&tasks, asyncTask{
			clientID:     id,
			client:       c,
			train:        shard.Train,
			localTest:    shard.LocalTest,
			startVersion: version,
			finishAt:     now + dur,
			outcome:      out,
			tech:         tech,
		})
		return nil
	}

	// launch walks a fresh random permutation under a probe budget
	// proportional to the open slots — deriving only probed clients —
	// instead of an O(population) eligibility scan. A probe derives through
	// the unpinned cache; only actual launches pin.
	launch := func() error {
		step0 := stepOf(now)
		want := cfg.Concurrency - len(inFlight)
		if want <= 0 {
			return nil
		}
		probes := 8*want + 64
		if probes > n {
			probes = n
		}
		ps := selection.NewPermSampler(rng, n)
		for ; probes > 0 && len(inFlight) < cfg.Concurrency; probes-- {
			id, ok := ps.Next()
			if !ok {
				break
			}
			if inFlight[id] {
				continue
			}
			if !p.Client(id).ResourcesAt(step0).Available {
				continue
			}
			if err := launchOne(id); err != nil {
				return err
			}
		}
		return nil
	}

	var pendingJobs []asyncTrainJob
	var pendingEvents []asyncEvent
	pool := newContextPool(global)

	aggregations := 0
	evalCountdown := cfg.EvalEvery

	// Checkpoint seam: restore against the freshly initialized state
	// above; boundary hooks fire at the end of every aggregation barrier —
	// the async engine's quiescent point, where the buffered-job and
	// pending-event queues are empty and only the task heap is in flight.
	ckState := &asyncRunState{
		cfg: cfg, p: p, ctrl: ctrl, global: global, res: res,
		hfDiff: hfDiff, src: src, timeout: timeout,
		versions: versions, version: &version, now: &now,
		evalCountdown: &evalCountdown, tasks: &tasks, inFlight: inFlight,
	}
	if cfg.Checkpoint != nil && len(cfg.Checkpoint.Resume) > 0 {
		a, err := ckState.restore(cfg.Checkpoint.Resume)
		if err != nil {
			return nil, fmt.Errorf("fl: resume: %w", err)
		}
		aggregations = a
	}

	for aggregations < cfg.Rounds {
		var launchErr error
		withPhase("select", func() { launchErr = launch() })
		if launchErr != nil {
			return nil, launchErr
		}
		if tasks.Len() == 0 {
			return nil, fmt.Errorf("fl: FedBuff deadlocked with no in-flight tasks")
		}
		task := heap.Pop(&tasks).(asyncTask)
		now = task.finishAt
		delete(inFlight, task.clientID)

		out := task.outcome
		if out.Reason == device.DropDeadline {
			hfDiff[task.clientID] = out.DeadlineDiff
		} else if out.Completed {
			hfDiff[task.clientID] = 0
		}

		startParams, haveVersion := versions[task.startVersion]
		staleness := version - task.startVersion
		tooStale := isTooStale(staleness, cfg.StalenessCap, haveVersion)
		eo.dev.Record(out)
		eo.clientSpans(task.finishAt-out.Cost.TotalSeconds, task.startVersion, task.clientID, task.tech, out)
		if out.Completed && tooStale {
			// The update arrived but its base version is ancient: FedBuff
			// discards it, so every resource it consumed is waste.
			res.Ledger.RecordDiscarded(task.clientID, task.tech, out)
			eo.discarded.Inc()
			eo.span(obs.Span{T: task.finishAt, Kind: "discard", Round: task.startVersion, Client: task.clientID, Note: "stale"})
		} else {
			res.Ledger.Record(task.clientID, task.tech, out)
			if out.Completed {
				eo.completed.Inc()
			} else {
				eo.dropped.Inc()
			}
		}
		trainIdx := -1
		if out.Completed && !tooStale {
			trainIdx = len(pendingJobs)
			pendingJobs = append(pendingJobs, asyncTrainJob{
				clientID:    task.clientID,
				tech:        task.tech,
				round:       version,
				staleness:   staleness,
				startParams: startParams,
				train:       task.train,
				localTest:   task.localTest,
			})
		}
		pendingEvents = append(pendingEvents, asyncEvent{
			version:  version,
			clientID: task.clientID,
			client:   task.client,
			tech:     task.tech,
			out:      out,
			trainIdx: trainIdx,
		})

		if len(pendingJobs) < cfg.BufferK {
			continue
		}

		// Aggregation barrier: train the whole buffered batch in parallel
		// (the global model is frozen until the batch is applied), then
		// collect in pop order on this goroutine.
		jobs := pendingJobs
		pool.ensure(cfg.Parallelism, len(jobs))
		eo.fanoutJobs.Observe(float64(len(jobs)))
		withPhase("train", func() {
			forEachSlot(len(jobs), cfg.Parallelism, func(worker, slot int) {
				j := &jobs[slot]
				eo.trainCalls.Inc()
				j.lt, j.err = trainLocal(pool.ctx(worker), pool.delta(slot), global,
					j.startParams, j.train, j.localTest, j.tech, cfg, j.round, j.clientID)
			})
		})
		for i := range jobs {
			if jobs[i].err != nil {
				return nil, jobs[i].err
			}
		}

		bufDeltas := make([]tensor.Vector, len(jobs))
		bufWeights := make([]float64, len(jobs))
		for i := range jobs {
			// FedBuff's staleness discount.
			bufDeltas[i] = jobs[i].lt.delta
			bufWeights[i] = jobs[i].lt.weight / math.Sqrt(1+float64(jobs[i].staleness))
		}
		for _, ev := range pendingEvents {
			var accImprove float64
			if ev.trainIdx >= 0 {
				accImprove = jobs[ev.trainIdx].lt.accImprove
			}
			ctrl.Feedback(ev.version, ev.client, ev.tech, ev.out, accImprove)
			cfg.Logger.LogClientRound(clientRoundLog(ev.version, ev.clientID, ev.tech, ev.out, accImprove))
			// The launch-time pin is dropped once the event — the last
			// consumer of this task's client instance — has been delivered.
			p.Release(ev.clientID)
		}
		pendingJobs = pendingJobs[:0]
		pendingEvents = pendingEvents[:0]

		var aggErr error
		withPhase("aggregate", func() { aggErr = applyAggregate(global, bufDeltas, bufWeights) })
		if aggErr != nil {
			return nil, aggErr
		}
		eo.span(obs.Span{T: now, Kind: "aggregate", Round: version, Client: -1})
		eo.rounds.Inc()
		version++
		versions[version] = global.Parameters().Clone()
		evictStaleVersion(versions, version, cfg.StalenessCap)
		aggregations++
		evalCountdown--
		if evalCountdown <= 0 || aggregations == cfg.Rounds {
			acc, _ := global.Evaluate(p.GlobalTest())
			res.GlobalAccHistory = append(res.GlobalAccHistory, acc)
			res.EvalRounds = append(res.EvalRounds, aggregations)
			evalCountdown = cfg.EvalEvery
			eo.evals.Inc()
			eo.globalAcc.Set(acc)
		}
		// Publish population-cache telemetry at this schedule-determined
		// point so exposition bytes never depend on Parallelism.
		p.FlushObs()
		// Sample before the checkpoint hook so every snapshot carries the
		// timeline through its own aggregation — the stitching invariant.
		sampleRoundTimeline(cfg.Timeline, ctrl, aggregations-1, now,
			obs.SeriesValue{Name: "round_buffered_jobs", Value: float64(len(jobs))},
			obs.SeriesValue{Name: "model_version", Value: float64(version)})
		if stop, err := ckState.boundary(aggregations); err != nil {
			return nil, err
		} else if stop {
			break
		}
	}

	// FedBuff's over-selection bill: every task still in flight when the
	// target aggregation count is reached consumed resources that never
	// reach the model (Fig 2b / Fig 12's FedBuff inefficiency). On a
	// graceful checkpoint stop the same drain applies — the discards land
	// in this (partial) Result but not in the snapshot, which captured the
	// tasks as still in flight so the resumed run can finish them.
	for tasks.Len() > 0 {
		task := heap.Pop(&tasks).(asyncTask)
		res.Ledger.RecordDiscarded(task.clientID, task.tech, task.outcome)
		eo.discarded.Inc()
		eo.span(obs.Span{T: task.finishAt, Kind: "discard", Round: version, Client: task.clientID, Note: "overrun"})
		p.Release(task.clientID)
	}

	res.WallClockSeconds = now
	res.Ledger.WallClockSeconds = now
	res.CompletedRounds = aggregations
	res.SimClockSeconds = now
	res.FinalClientAccs = evaluateClientsPop(global, p, cfg.EvalClients)
	res.FinalAccStats = metrics.ComputeAccuracyStats(res.FinalClientAccs)
	res.FinalGlobalAcc, _ = global.Evaluate(p.GlobalTest())
	res.FinalParams = global.Parameters().Clone()
	p.FlushObs()
	return res, nil
}
