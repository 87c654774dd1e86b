package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"floatfl/internal/core"
	"floatfl/internal/data"
	"floatfl/internal/dist"
	"floatfl/internal/metrics"
	"floatfl/internal/nn"
	"floatfl/internal/rl"
)

const (
	distConns          = 2   // client goroutines, each a closed loop
	distClientsPerConn = 10  // registered clients each goroutine steps in turn
	distAggregations   = 600 // the run ends when the server reaches this round
	distAggregateK     = 2
	distArch           = "resnet18"
	distEpochs         = 2
	distBatch          = 16
)

// stepRecord is one Client.Step as its goroutine saw it.
type stepRecord struct {
	start, end time.Time
	accepted   bool
	err        error
}

// distEnv is what dist-loopback's set-up builds: the federation, the
// server behind its loopback listener and the registered clients.
type distEnv struct {
	fed     *data.Federation
	tc      *tracedController
	srv     *dist.Server
	th      *timedHandler
	ts      *httptest.Server
	clients []*dist.Client
}

func (e *distEnv) close() {
	e.ts.Close()
	e.srv.Close()
}

// setupDist builds one distEnv. A traced one wraps the controller and the
// server's handler.
func setupDist(ctx context.Context, seed int64, traced bool) (*distEnv, error) {
	n := distConns * distClientsPerConn
	fed, err := data.Generate(simDataset, data.GenerateConfig{Clients: n, Alpha: simAlpha, Seed: seed})
	if err != nil {
		return nil, err
	}
	e := &distEnv{fed: fed}
	float := core.New(core.Config{
		Agent:     rl.Config{Seed: seed + 2, TotalRounds: distAggregations},
		BatchSize: distBatch, Epochs: distEpochs, ClientsPerRound: distAggregateK,
	})
	var ctrl engineController = float
	if traced {
		e.tc = &tracedController{inner: float}
		ctrl = e.tc
	}
	e.srv, err = dist.NewServer(dist.ServerConfig{
		Spec: dist.TrainSpec{
			Arch: distArch, InDim: fed.Profile.Dim, Classes: fed.Profile.Classes,
			Epochs: distEpochs, BatchSize: distBatch, LR: simLR,
		},
		AggregateK: distAggregateK,
		Controller: ctrl,
		Holdout:    fed.GlobalTest,
		Seed:       seed + 1,
	})
	if err != nil {
		return nil, err
	}
	var handler http.Handler = e.srv.Handler()
	if traced {
		e.th = newTimedHandler(handler)
		handler = e.th
	}
	e.ts = httptest.NewServer(handler)
	e.clients = make([]*dist.Client, n)
	for i := range e.clients {
		c := dist.NewClient(e.ts.URL, fmt.Sprintf("bench-%d", i), fed.Train[i], fed.LocalTest[i], seed+100+int64(i))
		if err := c.Register(ctx, 6+10*float64(i%4), 2000+500*float64(i%4)); err != nil {
			e.close()
			return nil, fmt.Errorf("register: %w", err)
		}
		e.clients[i] = c
	}
	return e, nil
}

// runDist performs one repetition of dist-loopback: the real dist.Server
// behind an httptest loopback listener, driven by distConns goroutines
// that each call Step again as soon as the previous Step returns.
func runDist(seed int64, traced bool) (*repResult, error) {
	r := &repResult{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Set-up runs setupReps times and the last build is used. setup_s is
	// the median, so that one slow build does not decide it.
	var e *distEnv
	setups := make([]float64, setupReps)
	for i := range setups {
		if e != nil {
			e.close()
		}
		t0 := wallNow()
		var err error
		if e, err = setupDist(ctx, seed, traced); err != nil {
			return nil, err
		}
		setups[i] = wallNow().Sub(t0).Seconds()
	}
	defer e.close()
	r.SetupS = median(setups)
	fed, srv, clients, n := e.fed, e.srv, e.clients, len(e.clients)

	// Each goroutine owns its slice of records; reached is the first time
	// any goroutine saw the target round after one of its Steps.
	records := make([][]stepRecord, distConns)
	reached := make([]time.Time, distConns)
	start := wallNow()
	var wg sync.WaitGroup
	for g := 0; g < distConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := clients[g*distClientsPerConn : (g+1)*distClientsPerConn]
			for {
				for _, c := range mine {
					round := srv.Round()
					if round >= distAggregations {
						return
					}
					rec := stepRecord{start: wallNow()}
					rec.accepted, rec.err = c.Step(ctx, round)
					rec.end = wallNow()
					records[g] = append(records[g], rec)
					if rec.err != nil {
						return
					}
					if reached[g].IsZero() && srv.Round() >= distAggregations {
						reached[g] = rec.end
					}
				}
			}
		}(g)
	}
	wg.Wait()

	end := time.Time{}
	for _, t := range reached {
		if !t.IsZero() && (end.IsZero() || t.Before(end)) {
			end = t
		}
	}
	var stepMs []float64
	accepted := 0
	for _, recs := range records {
		for _, rec := range recs {
			r.Ops++
			if rec.err != nil {
				r.OpErrors++
				r.fail("step failed: %v", rec.err)
				continue
			}
			stepMs = append(stepMs, float64(rec.end.Sub(rec.start))/float64(time.Millisecond))
			if rec.accepted && !end.IsZero() && !end.Before(rec.end) {
				accepted++
			}
		}
	}
	r.check(!end.IsZero(), "no client saw the server reach round %d", distAggregations)
	if end.IsZero() {
		end = wallNow()
	}
	r.RunS = end.Sub(start).Seconds()
	ly := layerSet{}
	if traced {
		// Read before the model fetch and status call below add requests.
		e.th.report(ly, end.Sub(start))
		ly.controller(e.tc)
	}
	r.Updates = accepted
	r.StepMs = stepMs

	r.GlobalAcc = srv.HoldoutAccuracy()
	// The final global model, fetched over the public task endpoint, is
	// scored like the sims' final model: on every client's local test
	// split.
	final, err := fetchModel(e.ts.URL, clients[0].ID(), fed.Profile)
	r.check(err == nil, "fetching the final model: %v", err)
	if err == nil {
		accs := make([]float64, n)
		for i := range accs {
			accs[i], _ = final.Evaluate(fed.LocalTest[i])
		}
		r.Bottom10 = metrics.ComputeAccuracyStats(accs).Bottom10
	}
	st, err := clients[0].Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("status: %w", err)
	}
	drops := 0
	for _, d := range st.Drops {
		drops += d
	}
	// A client whose round moved on while it trained is the deployment's
	// dropout: the server counts it when it sweeps stale task holders.
	r.DropoutFrac = frac(float64(drops), float64(st.UpdatesSeen+drops))

	r.check(srv.Round() >= distAggregations, "server reached round %d, want %d", srv.Round(), distAggregations)
	r.check(srv.LeaseExpiries() == 0, "%d lease expiries, want 0", srv.LeaseExpiries())
	chance := 1 / float64(fed.Profile.Classes)
	acc := r.GlobalAcc
	r.check(!math.IsNaN(acc) && !math.IsInf(acc, 0) && acc > chance,
		"holdout accuracy %.4f is not finite and above chance %.4f", acc, chance)
	if !traced {
		return r, nil
	}

	ly["dist.aggregations"] = float64(srv.Round())
	ly["dist.lease_expiries"] = float64(srv.LeaseExpiries())
	ly["dist.partial_aggregations"] = float64(srv.PartialAggregations())
	probe := layerProbe{
		profile: fed.Profile,
		gen:     data.GenerateConfig{Clients: n, Alpha: simAlpha, Seed: seed},
		shard: func(id int) data.ClientShard {
			return data.ClientShard{Train: fed.Train[id], LocalTest: fed.LocalTest[id]}
		},
		clients: n,
		arch:    distArch,
		backend: "ref",
		train:   trainConfigFor(distEpochs, distBatch, simLR, seed),
	}
	if final != nil {
		if err := probe.measure(ly, final.Parameters()); err != nil {
			return nil, err
		}
	}
	r.Layers = ly
	return r, nil
}

// fetchModel asks the server for a task on behalf of an idle client and
// decodes the global model it carries.
func fetchModel(baseURL string, clientID int, p data.Profile) (*nn.Model, error) {
	body, err := json.Marshal(dist.TaskRequest{ClientID: clientID})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(baseURL+"/v1/task", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("task status %d", resp.StatusCode)
	}
	var task dist.TaskResponse
	if err := json.NewDecoder(resp.Body).Decode(&task); err != nil {
		return nil, err
	}
	m, err := nn.NewModel(distArch, p.Dim, p.Classes, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	if err := m.UnmarshalBinary(task.Model); err != nil {
		return nil, err
	}
	return m, nil
}
