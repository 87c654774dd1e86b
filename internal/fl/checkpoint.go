package fl

import (
	"bytes"
	"container/heap"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"floatfl/internal/checkpoint"
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

// Snapshot kinds written by the two engines. Decode enforces them, so a
// sync snapshot can never silently resume an async run (or vice versa).
const (
	SyncSnapshotKind  = "engine-sync"
	AsyncSnapshotKind = "engine-async"
)

// CheckpointConfig wires crash-safe checkpointing into a run. All hooks
// are polled or invoked only at the engines' quiescent boundaries (end of
// round for the sync engine, end of aggregation barrier for the async
// engine), on the engine goroutine — implementations need no locking
// beyond their own if they are shared with other goroutines.
type CheckpointConfig struct {
	// Every snapshots after each N completed rounds (sync) or aggregations
	// (async), counted from round zero — absolute, so a resumed run
	// snapshots on the same schedule as an uninterrupted one. Zero disables
	// periodic snapshots.
	Every int
	// Sink receives each encoded snapshot (a framed, checksummed blob
	// suitable for checkpoint.WriteFile's payload — it is already framed;
	// write it to disk as-is). A snapshot error aborts the run. Nil
	// disables snapshotting entirely (Every and Request are then inert).
	Sink func(snapshot []byte) error
	// Request is polled at every boundary; returning true triggers an
	// immediate snapshot (live /v1/snapshot-style control). Nil means
	// never.
	Request func() bool
	// Stop is polled at every boundary; returning true takes a final
	// snapshot (when Sink is set) and ends the run gracefully with a
	// partial Result and a nil error — Result.CompletedRounds tells the
	// caller how far it got. Nil means never.
	Stop func() bool
	// Resume, when non-empty, restores this snapshot (as produced via
	// Sink) before the first round. The run's configuration must match the
	// snapshot's fingerprint, and the population must be freshly
	// constructed (no trace steps generated, nothing resident).
	Resume []byte
}

// fingerprint pins every configuration dimension that affects the
// deterministic schedule. Rounds is deliberately absent — resuming with a
// larger Rounds is the supported way to extend a run — as are Parallelism
// (bit-identical by construction) and the checkpoint knobs themselves.
type fingerprint struct {
	Engine             string  `json:"engine"`
	Arch               string  `json:"arch"`
	Seed               int64   `json:"seed"`
	ClientsPerRound    int     `json:"clients_per_round"`
	Epochs             int     `json:"epochs"`
	BatchSize          int     `json:"batch_size"`
	LR                 float64 `json:"lr"`
	GradClip           float64 `json:"grad_clip"`
	DeadlineSec        float64 `json:"deadline_sec"`
	DeadlinePercentile float64 `json:"deadline_percentile"`
	EvalEvery          int     `json:"eval_every"`
	Concurrency        int     `json:"concurrency"`
	BufferK            int     `json:"buffer_k"`
	StalenessCap       int     `json:"staleness_cap"`
	Backend            string  `json:"backend"`
	ProxMu             float64 `json:"prox_mu"`
	EvalClients        int     `json:"eval_clients"`
	Population         int     `json:"population"`
	Selector           string  `json:"selector"`
	Controller         string  `json:"controller"`
}

// mismatch returns a field-level CompatError when two fingerprints differ
// (nil when identical).
func (got fingerprint) mismatch(want fingerprint) error {
	if got == want {
		return nil
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	var gm, wm map[string]json.RawMessage
	_ = json.Unmarshal(gb, &gm)
	_ = json.Unmarshal(wb, &wm)
	keys := make([]string, 0, len(gm))
	for k := range gm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !bytes.Equal(gm[k], wm[k]) {
			return &checkpoint.CompatError{Field: k, Got: string(gm[k]), Want: string(wm[k])}
		}
	}
	return &checkpoint.CompatError{Field: "fingerprint", Got: string(gb), Want: string(wb)}
}

// encodeParams serializes a parameter vector exactly: little-endian IEEE
// 754 bits, base64. Bit-exact for every value including NaN payloads, and
// ~3x more compact than decimal JSON.
func encodeParams(v tensor.Vector) string {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// decodeParams inverts encodeParams, enforcing the expected length.
func decodeParams(s string, want int) (tensor.Vector, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, &checkpoint.FormatError{Reason: "parameter blob is not base64: " + err.Error()}
	}
	if len(raw) != 8*want {
		return nil, &checkpoint.CompatError{Field: "parameter count",
			Got: strconv.Itoa(len(raw) / 8), Want: strconv.Itoa(want)}
	}
	v := make(tensor.Vector, want)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return v, nil
}

// captureStateful captures v's checkpoint state when it implements
// checkpoint.Stateful (structurally); stateless components contribute nil.
func captureStateful(v any) ([]byte, error) {
	if s, ok := v.(checkpoint.Stateful); ok {
		return s.CheckpointState()
	}
	return nil, nil
}

// restoreStateful applies a captured blob to v. A blob for a stateless
// component is a format error (the fingerprint matched, so the component
// names agree — the build must have lost the implementation).
func restoreStateful(v any, blob []byte, what string) error {
	if len(blob) == 0 {
		return nil
	}
	s, ok := v.(checkpoint.Stateful)
	if !ok {
		return &checkpoint.FormatError{Reason: what + " snapshot present but the component is stateless"}
	}
	return s.RestoreCheckpoint(blob)
}

// hfDiffOut converts the sparse human-feedback map to its serialized form
// (string keys marshal with sorted keys — deterministic bytes).
func hfDiffOut(m map[int]float64) map[string]float64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for id, v := range m {
		out[strconv.Itoa(id)] = v
	}
	return out
}

// hfDiffIn inverts hfDiffOut.
func hfDiffIn(m map[string]float64) (map[int]float64, error) {
	out := make(map[int]float64, len(m))
	for k, v := range m {
		id, err := strconv.Atoi(k)
		if err != nil {
			return nil, &checkpoint.FormatError{Reason: "bad hf-diff client key " + strconv.Quote(k)}
		}
		out[id] = v
	}
	return out, nil
}

// runSnap is the state shared by both engines' snapshots.
type runSnap struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	Completed   int                  `json:"completed"` // rounds (sync) or aggregations (async)
	Wall        float64              `json:"wall_clock_seconds"`
	Params      string               `json:"params"`
	ParamCount  int                  `json:"param_count"`
	AccHistory  []float64            `json:"acc_history,omitempty"`
	EvalRounds  []int                `json:"eval_rounds,omitempty"`
	HFDiff      map[string]float64   `json:"hf_diff,omitempty"`
	Draws       uint64               `json:"draws"`
	Ledger      *metrics.LedgerState `json:"ledger"`
	Selector    []byte               `json:"selector,omitempty"`
	Controller  []byte               `json:"controller,omitempty"`
	Population  *population.State    `json:"population"`
	Obs         *obs.Snapshot        `json:"obs,omitempty"`
	Timeline    []byte               `json:"timeline,omitempty"`
}

// checkLedger rejects a snapshot whose ledger this build cannot resume.
// Earlier builds kept a dense ledger ("sparse": false) for eager
// populations, and only eager runs used their pool-scanning selection and
// launch path ("lazy_selection": false in the fingerprint), so this one
// check refuses every snapshot written under that path instead of
// resuming it on a different selection stream.
func (snap *runSnap) checkLedger() error {
	if snap.Ledger == nil {
		return &checkpoint.FormatError{Reason: "snapshot has no ledger"}
	}
	if !snap.Ledger.Sparse {
		return &checkpoint.CompatError{Field: "ledger", Got: "dense", Want: "sparse"}
	}
	return nil
}

// taskSnap is one in-flight async task. The heap's backing array is
// serialized in array order and restored verbatim: heap.Init on an
// already-valid heap performs no swaps, so pop order — including ties on
// finishAt — is preserved exactly.
type taskSnap struct {
	ClientID     int            `json:"client_id"`
	StartVersion int            `json:"start_version"`
	FinishAt     float64        `json:"finish_at"`
	Tech         opt.Technique  `json:"tech"`
	Outcome      device.Outcome `json:"outcome"`
}

// versionSnap is one retained global-parameter version of the async
// engine's staleness window.
type versionSnap struct {
	Version int    `json:"version"`
	Params  string `json:"params"`
}

// asyncSnap extends runSnap with the async engine's event-loop state.
type asyncSnap struct {
	runSnap
	Version       int           `json:"version"`
	Now           float64       `json:"now"`
	EvalCountdown int           `json:"eval_countdown"`
	Versions      []versionSnap `json:"versions"`
	Tasks         []taskSnap    `json:"tasks,omitempty"`
}

// syncRunState bundles the sync engine's mutable loop state so the
// snapshot/restore seams can live here rather than inline in the loop.
type syncRunState struct {
	cfg      Config
	p        *population.Population
	sel      selection.Selector
	ctrl     Controller
	global   *nn.Model
	res      *Result
	hfDiff   map[int]float64
	src      *rngstate.Source
	deadline float64
}

func (s *syncRunState) fingerprint() fingerprint {
	return fingerprint{
		Engine:             "sync",
		Arch:               s.cfg.Arch,
		Seed:               s.cfg.Seed,
		ClientsPerRound:    s.cfg.ClientsPerRound,
		Epochs:             s.cfg.Epochs,
		BatchSize:          s.cfg.BatchSize,
		LR:                 s.cfg.LR,
		GradClip:           s.cfg.GradClip,
		DeadlineSec:        s.deadline,
		DeadlinePercentile: s.cfg.DeadlinePercentile,
		EvalEvery:          s.cfg.EvalEvery,
		Backend:            s.cfg.Backend,
		ProxMu:             s.cfg.ProxMu,
		EvalClients:        s.cfg.EvalClients,
		Population:         s.p.NumClients(),
		Selector:           s.sel.Name(),
		Controller:         s.ctrl.Name(),
	}
}

// snapshot captures the complete run state at the end-of-round boundary.
func (s *syncRunState) snapshot(roundsDone int) ([]byte, error) {
	snap, err := s.buildRunSnap(roundsDone)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	return checkpoint.EncodeBytes(SyncSnapshotKind, payload)
}

func (s *syncRunState) buildRunSnap(roundsDone int) (runSnap, error) {
	params := s.global.Parameters()
	snap := runSnap{
		Fingerprint: s.fingerprint(),
		Completed:   roundsDone,
		Wall:        s.res.WallClockSeconds,
		Params:      encodeParams(params),
		ParamCount:  len(params),
		AccHistory:  append([]float64(nil), s.res.GlobalAccHistory...),
		EvalRounds:  append([]int(nil), s.res.EvalRounds...),
		HFDiff:      hfDiffOut(s.hfDiff),
		Draws:       s.src.Pos(),
		Ledger:      s.res.Ledger.CheckpointState(),
	}
	var err error
	if snap.Selector, err = captureStateful(s.sel); err != nil {
		return snap, err
	}
	if snap.Controller, err = captureStateful(s.ctrl); err != nil {
		return snap, err
	}
	if snap.Population, err = s.p.CheckpointState(); err != nil {
		return snap, err
	}
	if s.cfg.Metrics != nil {
		o := s.cfg.Metrics.Snapshot()
		snap.Obs = &o
	}
	if s.cfg.Timeline != nil {
		if snap.Timeline, err = s.cfg.Timeline.CheckpointState(); err != nil {
			return snap, err
		}
	}
	return snap, nil
}

// restore applies a snapshot to a freshly initialized run, returning the
// round index to resume from. The decode + validation phase completes
// before any engine state is mutated, so a corrupt or incompatible
// snapshot leaves the run untouched.
func (s *syncRunState) restore(data []byte) (int, error) {
	payload, err := checkpoint.DecodeBytes(data, SyncSnapshotKind)
	if err != nil {
		return 0, err
	}
	var snap runSnap
	if err := json.Unmarshal(payload, &snap); err != nil {
		return 0, &checkpoint.FormatError{Reason: "sync snapshot payload: " + err.Error()}
	}
	if err := snap.Fingerprint.mismatch(s.fingerprint()); err != nil {
		return 0, err
	}
	if err := snap.checkLedger(); err != nil {
		return 0, err
	}
	if snap.Completed > s.cfg.Rounds {
		return 0, &checkpoint.CompatError{Field: "completed rounds",
			Got: strconv.Itoa(snap.Completed), Want: "<= " + strconv.Itoa(s.cfg.Rounds)}
	}
	params, err := decodeParams(snap.Params, len(s.global.Parameters()))
	if err != nil {
		return 0, err
	}
	hf, err := hfDiffIn(snap.HFDiff)
	if err != nil {
		return 0, err
	}

	// Mutation phase. Population drain logs must land before anything
	// probes a trace; the LRU/stat overwrite happens last because nothing
	// is pinned at a sync boundary.
	if err := s.p.RestoreDrainLogs(snap.Population); err != nil {
		return 0, err
	}
	if err := s.global.SetParameters(params); err != nil {
		return 0, err
	}
	if err := s.res.Ledger.RestoreCheckpoint(snap.Ledger); err != nil {
		return 0, err
	}
	s.res.WallClockSeconds = snap.Wall
	s.res.GlobalAccHistory = append([]float64(nil), snap.AccHistory...)
	s.res.EvalRounds = append([]int(nil), snap.EvalRounds...)
	for id, v := range hf {
		s.hfDiff[id] = v
	}
	if err := restoreStateful(s.sel, snap.Selector, "selector"); err != nil {
		return 0, err
	}
	if err := restoreStateful(s.ctrl, snap.Controller, "controller"); err != nil {
		return 0, err
	}
	s.p.RestoreResidency(snap.Population)
	if s.cfg.Metrics != nil && snap.Obs != nil {
		if err := s.cfg.Metrics.RestoreSnapshot(*snap.Obs); err != nil {
			return 0, err
		}
	}
	if s.cfg.Timeline != nil && len(snap.Timeline) > 0 {
		if err := s.cfg.Timeline.RestoreCheckpoint(snap.Timeline); err != nil {
			return 0, err
		}
	}
	s.src.SeekTo(snap.Draws)
	return snap.Completed, nil
}

// boundary runs the checkpoint hooks at a quiescent point. roundsDone is
// the absolute number of completed rounds. It reports whether the run
// should stop gracefully.
func (s *syncRunState) boundary(roundsDone int) (bool, error) {
	return checkpointBoundary(s.cfg.Checkpoint, roundsDone, s.snapshot)
}

// asyncRunState bundles the async engine's mutable loop state. Pointer
// fields alias the loop's local variables so snapshots always observe the
// live values.
type asyncRunState struct {
	cfg     Config
	p       *population.Population
	ctrl    Controller
	global  *nn.Model
	res     *Result
	hfDiff  map[int]float64
	src     *rngstate.Source
	timeout float64

	versions      map[int]tensor.Vector
	version       *int
	now           *float64
	evalCountdown *int
	tasks         *taskHeap
	inFlight      map[int]bool
}

func (s *asyncRunState) fingerprint() fingerprint {
	return fingerprint{
		Engine:             "async",
		Arch:               s.cfg.Arch,
		Seed:               s.cfg.Seed,
		ClientsPerRound:    s.cfg.ClientsPerRound,
		Epochs:             s.cfg.Epochs,
		BatchSize:          s.cfg.BatchSize,
		LR:                 s.cfg.LR,
		GradClip:           s.cfg.GradClip,
		DeadlineSec:        s.timeout,
		DeadlinePercentile: s.cfg.DeadlinePercentile,
		EvalEvery:          s.cfg.EvalEvery,
		Concurrency:        s.cfg.Concurrency,
		BufferK:            s.cfg.BufferK,
		StalenessCap:       s.cfg.StalenessCap,
		Backend:            s.cfg.Backend,
		ProxMu:             s.cfg.ProxMu,
		EvalClients:        s.cfg.EvalClients,
		Population:         s.p.NumClients(),
		Selector:           "fedbuff",
		Controller:         s.ctrl.Name(),
	}
}

// snapshot captures the complete run state at the aggregation-barrier
// boundary. The buffered-job and pending-event queues are empty there by
// construction, so in-flight tasks are the only extra event-loop state.
func (s *asyncRunState) snapshot(aggregations int) ([]byte, error) {
	params := s.global.Parameters()
	snap := asyncSnap{
		runSnap: runSnap{
			Fingerprint: s.fingerprint(),
			Completed:   aggregations,
			Wall:        *s.now,
			Params:      encodeParams(params),
			ParamCount:  len(params),
			AccHistory:  append([]float64(nil), s.res.GlobalAccHistory...),
			EvalRounds:  append([]int(nil), s.res.EvalRounds...),
			HFDiff:      hfDiffOut(s.hfDiff),
			Draws:       s.src.Pos(),
			Ledger:      s.res.Ledger.CheckpointState(),
		},
		Version:       *s.version,
		Now:           *s.now,
		EvalCountdown: *s.evalCountdown,
	}
	var err error
	if snap.Controller, err = captureStateful(s.ctrl); err != nil {
		return nil, err
	}
	if snap.Population, err = s.p.CheckpointState(); err != nil {
		return nil, err
	}
	if s.cfg.Metrics != nil {
		o := s.cfg.Metrics.Snapshot()
		snap.Obs = &o
	}
	if s.cfg.Timeline != nil {
		if snap.Timeline, err = s.cfg.Timeline.CheckpointState(); err != nil {
			return nil, err
		}
	}
	vs := make([]int, 0, len(s.versions))
	for v := range s.versions {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	for _, v := range vs {
		snap.Versions = append(snap.Versions, versionSnap{Version: v, Params: encodeParams(s.versions[v])})
	}
	for _, t := range *s.tasks {
		snap.Tasks = append(snap.Tasks, taskSnap{
			ClientID:     t.clientID,
			StartVersion: t.startVersion,
			FinishAt:     t.finishAt,
			Tech:         t.tech,
			Outcome:      t.outcome,
		})
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, err
	}
	return checkpoint.EncodeBytes(AsyncSnapshotKind, payload)
}

// restore applies a snapshot to a freshly initialized async run, returning
// the aggregation count to resume from. Decode + validation completes
// before any mutation; then state lands in dependency order — drain logs,
// params/versions, ledger/result, controller, task re-pinning, unpinned
// residency, metric overwrite, RNG seek.
func (s *asyncRunState) restore(data []byte) (int, error) {
	payload, err := checkpoint.DecodeBytes(data, AsyncSnapshotKind)
	if err != nil {
		return 0, err
	}
	var snap asyncSnap
	if err := json.Unmarshal(payload, &snap); err != nil {
		return 0, &checkpoint.FormatError{Reason: "async snapshot payload: " + err.Error()}
	}
	if err := snap.Fingerprint.mismatch(s.fingerprint()); err != nil {
		return 0, err
	}
	if err := snap.checkLedger(); err != nil {
		return 0, err
	}
	if snap.Completed > s.cfg.Rounds {
		return 0, &checkpoint.CompatError{Field: "completed aggregations",
			Got: strconv.Itoa(snap.Completed), Want: "<= " + strconv.Itoa(s.cfg.Rounds)}
	}
	dim := len(s.global.Parameters())
	params, err := decodeParams(snap.Params, dim)
	if err != nil {
		return 0, err
	}
	versions := make(map[int]tensor.Vector, len(snap.Versions))
	for _, v := range snap.Versions {
		pv, err := decodeParams(v.Params, dim)
		if err != nil {
			return 0, err
		}
		versions[v.Version] = pv
	}
	n := s.p.NumClients()
	for _, t := range snap.Tasks {
		if t.ClientID < 0 || t.ClientID >= n {
			return 0, &checkpoint.FormatError{Reason: fmt.Sprintf("in-flight task for client %d, population has %d", t.ClientID, n)}
		}
	}
	hf, err := hfDiffIn(snap.HFDiff)
	if err != nil {
		return 0, err
	}

	// Mutation phase.
	if err := s.p.RestoreDrainLogs(snap.Population); err != nil {
		return 0, err
	}
	if err := s.global.SetParameters(params); err != nil {
		return 0, err
	}
	for v := range s.versions {
		delete(s.versions, v)
	}
	for v, pv := range versions {
		s.versions[v] = pv
	}
	if err := s.res.Ledger.RestoreCheckpoint(snap.Ledger); err != nil {
		return 0, err
	}
	s.res.GlobalAccHistory = append([]float64(nil), snap.AccHistory...)
	s.res.EvalRounds = append([]int(nil), snap.EvalRounds...)
	for id, v := range hf {
		s.hfDiff[id] = v
	}
	if err := restoreStateful(s.ctrl, snap.Controller, "controller"); err != nil {
		return 0, err
	}
	// Re-pin every in-flight client before warming the unpinned LRU:
	// Acquire passes transiently through the unpinned list, so pinning
	// into an already-warmed full cache would momentarily overflow it and
	// evict an entry the capture knew was resident.
	*s.tasks = (*s.tasks)[:0]
	for _, t := range snap.Tasks {
		c := s.p.AcquireClient(t.ClientID)
		shard := s.p.AcquireShard(t.ClientID)
		*s.tasks = append(*s.tasks, asyncTask{
			clientID:     t.ClientID,
			client:       c,
			train:        shard.Train,
			localTest:    shard.LocalTest,
			startVersion: t.StartVersion,
			finishAt:     t.FinishAt,
			outcome:      t.Outcome,
			tech:         t.Tech,
		})
		s.inFlight[t.ClientID] = true
	}
	heap.Init(s.tasks)
	s.p.RestoreResidency(snap.Population)
	if s.cfg.Metrics != nil && snap.Obs != nil {
		if err := s.cfg.Metrics.RestoreSnapshot(*snap.Obs); err != nil {
			return 0, err
		}
	}
	if s.cfg.Timeline != nil && len(snap.Timeline) > 0 {
		if err := s.cfg.Timeline.RestoreCheckpoint(snap.Timeline); err != nil {
			return 0, err
		}
	}
	*s.version = snap.Version
	*s.now = snap.Now
	*s.evalCountdown = snap.EvalCountdown
	s.src.SeekTo(snap.Draws)
	return snap.Completed, nil
}

// boundary runs the checkpoint hooks at the aggregation barrier.
func (s *asyncRunState) boundary(aggregations int) (bool, error) {
	return checkpointBoundary(s.cfg.Checkpoint, aggregations, s.snapshot)
}

// checkpointBoundary implements the shared hook protocol: poll Stop, then
// decide whether a snapshot is due (stop with a sink, the periodic
// schedule, or an explicit request) and deliver it. Returns whether the
// run should end gracefully.
func checkpointBoundary(ck *CheckpointConfig, done int, snapshot func(int) ([]byte, error)) (bool, error) {
	if ck == nil {
		return false, nil
	}
	stop := ck.Stop != nil && ck.Stop()
	want := false
	if ck.Sink != nil {
		want = stop ||
			(ck.Every > 0 && done%ck.Every == 0) ||
			(ck.Request != nil && ck.Request())
	}
	if want {
		blob, err := snapshot(done)
		if err != nil {
			return stop, fmt.Errorf("fl: checkpoint at %d: %w", done, err)
		}
		if err := ck.Sink(blob); err != nil {
			return stop, fmt.Errorf("fl: checkpoint sink at %d: %w", done, err)
		}
	}
	return stop, nil
}
