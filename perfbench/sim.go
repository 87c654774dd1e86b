package main

import (
	"bytes"
	"fmt"
	"runtime"

	"floatfl/internal/checkpoint"
	"floatfl/internal/core"
	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/population"
	"floatfl/internal/rl"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

const (
	simDataset = "femnist"
	simArch    = "resnet34" // the architecture the experiments pair with femnist
	simAlpha   = 0.1
	simLR      = 0.1
	simClip    = 5 // fl.Config's default GradClip, repeated for the nn probe
)

// simSpec is one simulator workload.
type simSpec struct {
	lazy         bool
	async        bool
	clients      int
	cacheClients int
	rounds       int // sync rounds or async aggregations
	perRound     int
	epochs       int
	batch        int
	concurrency  int
	buffer       int
	backend      string
	ckptEvery    int
	// telemetry attaches a metrics registry and a timeline and exports
	// both when the engine returns, inside run_s.
	telemetry bool
}

var simSpecs = map[string]simSpec{
	wlSimLazy: {
		lazy: true, clients: 20_000, cacheClients: 4096,
		rounds: 10, perRound: 400, epochs: 2, batch: 16,
		backend: "fast", telemetry: true,
	},
	wlFedBuff: {
		async: true, clients: 200,
		rounds: 60, perRound: 30, epochs: 5, batch: 20,
		concurrency: 100, buffer: 30, backend: "ref", ckptEvery: 10,
	},
}

func (sp simSpec) population(seed int64) (*population.Population, error) {
	if sp.lazy {
		return population.NewLazy(population.Config{
			Dataset: simDataset, Clients: sp.clients, Alpha: simAlpha, Seed: seed,
			Scenario: trace.ScenarioDynamic, CacheClients: sp.cacheClients,
		})
	}
	fed, err := data.Generate(simDataset, data.GenerateConfig{Clients: sp.clients, Alpha: simAlpha, Seed: seed})
	if err != nil {
		return nil, err
	}
	devs, err := device.NewPopulation(device.PopulationConfig{
		Clients: sp.clients, Scenario: trace.ScenarioDynamic, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return population.WrapEager(fed, devs)
}

// simEnv is what a sim workload's set-up builds for the engine call.
type simEnv struct {
	pop   *population.Population
	float *core.Float
	sel   *selection.Random
	reg   *obs.Registry
	tl    *obs.Timeline
	sink  *snapshotSink
	steps *stepClock
	cfg   fl.Config
}

// setup builds the population, controller, selector, telemetry and
// engine configuration of one repetition.
func (sp simSpec) setup(seed int64) (*simEnv, error) {
	e := &simEnv{sink: &snapshotSink{}, steps: &stepClock{}}
	if sp.telemetry {
		e.reg = obs.NewRegistry()
		e.tl = obs.NewTimeline(e.reg, obs.DefaultTimelineCapacity)
	}
	var err error
	if e.pop, err = sp.population(seed); err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	e.pop.Instrument(e.reg)
	e.float = core.New(core.Config{
		Agent:     rl.Config{Seed: seed + 2, TotalRounds: sp.rounds},
		BatchSize: sp.batch, Epochs: sp.epochs, ClientsPerRound: sp.perRound,
		Metrics: e.reg,
	})
	e.sel = selection.NewRandom(seed + 10)
	e.cfg = fl.Config{
		Arch:            simArch,
		Rounds:          sp.rounds,
		ClientsPerRound: sp.perRound,
		Epochs:          sp.epochs,
		BatchSize:       sp.batch,
		LR:              simLR,
		EvalEvery:       max(1, sp.rounds/10),
		Seed:            seed + 1,
		Concurrency:     sp.concurrency,
		BufferK:         sp.buffer,
		Parallelism:     runtime.NumCPU(),
		Backend:         sp.backend,
		Metrics:         e.reg,
		Timeline:        e.tl,
		Checkpoint:      &fl.CheckpointConfig{Every: sp.ckptEvery, Stop: e.steps.poll},
	}
	if sp.ckptEvery > 0 {
		e.cfg.Checkpoint.Sink = e.sink.store
	}
	return e, nil
}

// runSim performs one repetition of a sim workload: set-up, the engine
// call, telemetry export and the output checks. A traced repetition
// wraps the engine's public seams from this package and then measures
// the layers by direct calls; an untraced one attaches only the
// checkpoint Stop poll that times steps.
func runSim(sp simSpec, seed int64, traced bool) (*repResult, error) {
	r := &repResult{Ops: 1}
	// Set-up runs setupReps times and the last build is used. setup_s is
	// the median, so that one slow build does not decide it.
	var e *simEnv
	setups := make([]float64, setupReps)
	for i := range setups {
		t0 := wallNow()
		var err error
		if e, err = sp.setup(seed); err != nil {
			return nil, err
		}
		setups[i] = wallNow().Sub(t0).Seconds()
	}
	r.SetupS = median(setups)

	var ctrl engineController = e.float
	var selector engineSelector = e.sel
	var log *eventLog
	var timed *timedBackend
	var tc *tracedController
	var ts *tracedSelector
	if traced {
		log = &eventLog{}
		var err error
		if timed, err = timedBackendFor(sp.backend); err != nil {
			return nil, err
		}
		e.cfg.Backend = timed.Name()
		tc = &tracedController{inner: e.float, log: log}
		ts = &tracedSelector{inner: e.sel, log: log}
		ctrl, selector = tc, ts
		e.cfg.Logger = tracedLogger{log: log}
		e.sink.log = log
		e.steps.log = log
	}

	t1 := wallNow()
	if log != nil {
		log.t0 = t1
		log.mark(evStart)
	}
	e.steps.last = t1
	var res *fl.Result
	var err error
	if sp.async {
		res, err = fl.RunAsyncPop(e.pop, ctrl, e.cfg)
	} else {
		res, err = fl.RunSyncPop(e.pop, selector, ctrl, e.cfg)
	}
	engineEnd := log.mark(evReturn)
	if err != nil {
		r.OpErrors = 1
		r.fail("engine returned an error: %v", err)
		return r, nil
	}
	var metricsText, timelineJSON bytes.Buffer
	if e.reg != nil {
		err := e.reg.WriteText(&metricsText)
		r.check(err == nil, "metrics export: %v", err)
		err = e.tl.WriteJSONL(&timelineJSON)
		r.check(err == nil, "timeline export: %v", err)
	}
	end := wallNow()
	r.RunS = end.Sub(t1).Seconds()
	// Read before the checks below derive shards for re-scoring.
	shardStats, devStats := e.pop.Stats()

	l := res.Ledger
	completed := 0
	for _, n := range l.TechSuccess {
		completed += n
	}
	r.Updates = completed
	r.StepMs = durationsMs(e.steps.steps)
	r.GlobalAcc = res.FinalGlobalAcc
	r.Bottom10 = res.FinalAccStats.Bottom10
	r.DropoutFrac = frac(float64(l.TotalDrops), float64(l.TotalRounds))
	r.Digest = digest(res.FinalParams)
	r.AccsDigest = digest(res.FinalClientAccs)
	r.Snapshots = e.sink.count
	r.SnapshotBytes = e.sink.bytes

	// Output checks.
	profile := e.pop.Profile()
	chance := 1 / float64(profile.Classes)
	r.check(res.CompletedRounds == sp.rounds, "completed %d rounds, want %d", res.CompletedRounds, sp.rounds)
	r.check(allFinite(res.FinalParams), "final params are not all finite")
	r.check(res.FinalGlobalAcc > chance, "final global accuracy %.4f is not above chance %.4f", res.FinalGlobalAcc, chance)
	r.check(completed+l.TotalDrops+l.Discarded == l.TotalRounds,
		"ledger does not close: %d completed + %d dropped + %d discarded != %d client-rounds",
		completed, l.TotalDrops, l.Discarded, l.TotalRounds)
	if err := checkFinalEval(r, e.pop, sp.backend, res); err != nil {
		return nil, err
	}
	if sp.ckptEvery > 0 {
		r.check(e.sink.count == sp.rounds/sp.ckptEvery, "%d snapshots, want %d", e.sink.count, sp.rounds/sp.ckptEvery)
		_, err := checkpoint.DecodeBytes(e.sink.last, fl.AsyncSnapshotKind)
		r.check(err == nil, "last snapshot does not decode: %v", err)
	}
	if sp.telemetry {
		r.check(metricsText.Len() > 0 && timelineJSON.Len() > 0, "telemetry export is empty")
	}

	if !traced {
		return r, nil
	}
	ly := layerSet{}
	phases, unaccounted := cutPhases(log.evs)
	engineWall := engineEnd.Sub(t1)
	for ph, d := range phases {
		ly["fl."+phaseNames[ph]+"_s"] = d.Seconds()
	}
	ly["fl.unaccounted_frac"] = frac(float64(unaccounted), float64(engineWall))
	ly["fl.client_rounds"] = float64(l.TotalRounds)
	ly["fl.train_jobs"] = float64(completed)
	ly.controller(tc)
	ly["selection.select_s"] = ts.sel.seconds()
	ly["selection.observe_s"] = ts.observe.seconds()
	ly.population(shardStats, devStats)
	ly.tensor(timed)
	if sp.ckptEvery > 0 {
		ly["checkpoint.snapshots"] = float64(e.sink.count)
		ly["checkpoint.bytes"] = float64(e.sink.bytes)
		ly["checkpoint.encode_s"] = sinkIntervals(log.evs).Seconds()
		d0 := wallNow()
		_, _ = checkpoint.DecodeBytes(e.sink.last, fl.AsyncSnapshotKind) // checked above
		ly["checkpoint.decode_s"] = wallNow().Sub(d0).Seconds()
	}
	if sp.telemetry {
		ly["obs.export_s"] = end.Sub(engineEnd).Seconds()
		ly["obs.metrics_bytes"] = float64(metricsText.Len())
		ly["obs.timeline_bytes"] = float64(timelineJSON.Len())
	}
	probe := layerProbe{
		profile: profile,
		gen:     data.GenerateConfig{Clients: sp.clients, Alpha: simAlpha, Seed: seed},
		shard:   e.pop.Shard,
		clients: e.pop.NumClients(),
		arch:    simArch,
		backend: sp.backend,
		train:   trainConfigFor(sp.epochs, sp.batch, simLR, seed),
	}
	if err := probe.measure(ly, res.FinalParams); err != nil {
		return nil, err
	}
	r.Layers = ly
	return r, nil
}

// evalCheckClients is how many clients checkFinalEval re-scores.
const evalCheckClients = 64

// checkFinalEval checks the engine's final evaluation: the per-client
// sweep scored every client with an accuracy in [0, 1], and re-scoring a
// strided client sample and the global test with the final params on the
// workload's backend gives exactly the engine's figures.
func checkFinalEval(r *repResult, pop *population.Population, backend string, res *fl.Result) error {
	n := pop.NumClients()
	accs := res.FinalClientAccs
	r.check(len(accs) == n, "the final eval sweep scored %d clients, want %d", len(accs), n)
	inRange := true
	for _, a := range accs {
		inRange = inRange && a >= 0 && a <= 1 // false for NaN too
	}
	r.check(inRange, "final client accuracies are not all in [0, 1]")

	m, err := scoringModel(simArch, pop.Profile(), backend, res.FinalParams)
	if err != nil {
		return err
	}
	global, _ := m.Evaluate(pop.GlobalTest())
	r.check(global == res.FinalGlobalAcc, "re-scored global accuracy %v differs from the engine's %v",
		global, res.FinalGlobalAcc)
	if len(accs) != n {
		return nil
	}
	ids := strided(n, evalCheckClients)
	var differ []int
	for _, id := range ids {
		if acc, _ := m.Evaluate(pop.Shard(id).LocalTest); acc != accs[id] {
			differ = append(differ, id)
		}
	}
	r.check(len(differ) == 0, "%d of %d re-scored clients differ from the final eval sweep, the first is client %d",
		len(differ), len(ids), append(differ, -1)[0])
	return nil
}
