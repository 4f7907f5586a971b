package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/qserve"
	"repro/internal/relq"
	"repro/internal/runner"
	"repro/internal/simnet"
)

// workload is one named benchmark input. Every pass of a workload runs
// one sub-seed: setup builds the cluster, drive advances it through the
// virtual horizon, collect reads the query outcomes and checks them.
type workload struct {
	name string
	// subSeeds is how many sub-seeds (split from the run's --seed) one run
	// pools its virtual-time metrics over.
	subSeeds int
	// lifecycle marks a workload whose per-query results are only visible
	// through the obs lifecycle sink (serve).
	lifecycle bool
	build     func(seed int64, o *obs.Obs, tm *setupTimes) *sim
}

// workloads are the benchmark's inputs; README.md gives the reason for
// each.
var workloads = []workload{
	{
		name:     "steady",
		subSeeds: 2,
		build:    buildSteady,
	},
	{
		name:      "serve",
		subSeeds:  1,
		lifecycle: true,
		build:     buildServe,
	},
	{
		name:     "churn",
		subSeeds: 2,
		build:    buildChurn,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Workload sizes. Each pass is a few wall seconds on a 2-CPU host; a run
// pools its sub-seeds' queries.
const (
	steadyN        = 500
	steadyEnd      = 9*time.Hour + 30*time.Minute // through the Farsite 7:30-9:30 arrival ramp
	steadyFirstQ   = 6 * time.Hour
	steadyQGap     = 10 * time.Minute
	steadyQueries  = 18
	steadyQueryTTL = 20 * time.Minute

	// serve runs qserve's light interactive load with batch scans raised
	// to ~0.85x of the service's capacity, for 90 minutes so the queue is
	// in its steady state, on a small static population (2am, before the
	// Farsite morning arrivals) so each query is cheap.
	serveN            = 120
	serveStart        = 2 * time.Hour
	serveWindow       = 90 * time.Minute
	serveDrain        = 50 * time.Minute
	serveBatchPerHour = 14

	churnN       = 500
	churnEnd     = 3 * time.Hour
	churnFirstQ  = 10 * time.Minute
	churnQGap    = 4 * time.Minute
	churnQueries = 38
	churnLoss    = 0.02
)

// queryMix is the interactive template set the scheduled workloads
// (steady, churn) cycle through: the same filtered aggregates qserve's
// interactive class draws from.
var queryMix = qserve.InteractiveTemplates

// setupTimes splits a pass's set-up wall time; rec, when set, gets a
// span for each part.
type setupTimes struct {
	traceS, clusterS float64
	rec              *recorder
}

// sim is one built workload instance.
type sim struct {
	c     *core.Cluster
	trace *avail.Trace
	n     int
	end   time.Duration
	// drive runs the virtual horizon, recording a span per RunUntil step
	// and per injection on rec (nil-safe).
	drive func(rec *recorder)
	// collect returns the pass's query outcomes (nil when the workload
	// cannot observe them in this mode) and appends failed output checks.
	collect func(lc *lifecycle, checks *[]string) []queryOutcome
	// extra adds workload-specific deterministic outputs to the pass
	// fingerprint (nil when there are none).
	extra func(fp map[string]float64)
	// attempted is the number of queries the pass attempts, every class.
	attempted int
	// arrivals is the serve workload's arrival plan (nil elsewhere).
	arrivals []qserve.Arrival
}

// worldSeed fixes the simulated world every run shares: the router
// topology, endsystem attachment and ids, the message-loss stream, the
// availability trace and serve's query log, as the paper's evaluation
// uses one measured topology and one trace. The run's seed drives what
// runs on it: the data each endsystem holds, pastry's randomness, the
// injectors of the scheduled query streams, the fault injector's draws.
const worldSeed = 1

// clusterConfig is core.DefaultClusterConfig on the fixed world with
// the workload's randomness taken from seed.
func clusterConfig(trace *avail.Trace, seed int64, o *obs.Obs) core.ClusterConfig {
	cfg := core.DefaultClusterConfig(trace, worldSeed)
	cfg.Workload.Seed = seed
	cfg.Pastry.Seed = seed
	cfg.Obs = o
	return cfg
}

// timedTrace generates a trace and records the time it took.
func timedTrace(tm *setupTimes, gen func() *avail.Trace) *avail.Trace {
	sp := tm.rec.begin("setup.trace")
	t0 := time.Now()
	tr := gen()
	tm.traceS = time.Since(t0).Seconds()
	tm.rec.end(sp)
	return tr
}

func timedCluster(tm *setupTimes, cfg core.ClusterConfig) *core.Cluster {
	sp := tm.rec.begin("setup.cluster")
	t0 := time.Now()
	c := core.NewCluster(cfg)
	tm.clusterS = time.Since(t0).Seconds()
	tm.rec.end(sp)
	return c
}

// scheduled is a query injected by the benchmark itself at a fixed
// virtual instant.
type scheduled struct {
	at  time.Duration
	sql string
	q   *relq.Query
	h   *core.QueryHandle
}

// fixedSchedule is an open-loop query stream: count queries, gap apart,
// cycling through queryMix. Injectors are picked when the query is due.
func fixedSchedule(first, gap time.Duration, count int) []*scheduled {
	out := make([]*scheduled, count)
	for i := range out {
		t := queryMix[i%len(queryMix)]
		out[i] = &scheduled{at: first + time.Duration(i)*gap, sql: t.SQL, q: relq.MustParse(t.SQL)}
	}
	return out
}

// pickLive maps a random draw to a live endsystem by linear probe, as
// qserve does for its clients.
func pickLive(c *core.Cluster, rng *rand.Rand) (simnet.Endpoint, bool) {
	n := len(c.Nodes)
	start := rng.Intn(n)
	for i := 0; i < n; i++ {
		ep := simnet.Endpoint((start + i) % n)
		if c.Nodes[ep].Alive() {
			return ep, true
		}
	}
	return 0, false
}

// driveSchedule runs the cluster through a fixed query schedule and on to
// the end of the horizon.
func driveSchedule(s *sim, qs []*scheduled, seed int64) func(rec *recorder) {
	return func(rec *recorder) {
		rng := rand.New(rand.NewSource(runner.SplitSeed(seed, 77)))
		for _, sq := range qs {
			rec.runUntil(s.c, sq.at)
			ep, ok := pickLive(s.c, rng)
			if !ok {
				continue
			}
			sp := rec.begin("inject")
			sq.h = s.c.InjectQuery(ep, sq.q)
			rec.end(sp)
		}
		rec.runUntil(s.c, s.end)
	}
}

// collectSchedule turns the handles of a fixed schedule into outcomes and
// checks every result update against the oracle, taken at end of run
// (data only grows, so the end-of-run truth bounds every update).
func collectSchedule(s *sim, qs []*scheduled) func(*lifecycle, *[]string) []queryOutcome {
	return func(_ *lifecycle, checks *[]string) []queryOutcome {
		truth := make(map[string]int64)
		var out []queryOutcome
		for _, sq := range qs {
			if sq.h == nil {
				*checks = append(*checks, fmt.Sprintf("no live injector for query due at %v", sq.at))
				continue
			}
			if _, ok := truth[sq.sql]; !ok {
				truth[sq.sql] = s.c.TrueRelevantRows(sq.q)
			}
			ups := make([]update, len(sq.h.Results))
			for i, u := range sq.h.Results {
				ups[i] = update{at: u.At, rows: u.Partial.Count, contributors: u.Contributors}
			}
			checkUpdates(ups, truth[sq.sql], s.n, sq.sql, checks)
			expected := math.NaN()
			if sq.h.Predictor != nil {
				expected = sq.h.Predictor.ExpectedTotal()
			}
			out = append(out, outcomeOf(sq.at, s.end, ups, expected, true))
		}
		return out
	}
}

func buildSteady(seed int64, o *obs.Obs, tm *setupTimes) *sim {
	trace := timedTrace(tm, func() *avail.Trace {
		return avail.GenerateFarsite(avail.DefaultFarsiteConfig(steadyN, steadyEnd, worldSeed))
	})
	cfg := clusterConfig(trace, seed, o)
	cfg.Feed.Enabled = true
	// A light query stream: trees expire instead of refreshing to the end.
	cfg.Node.Agg.QueryTTL = steadyQueryTTL
	s := &sim{trace: trace, n: steadyN, end: steadyEnd}
	s.c = timedCluster(tm, cfg)
	qs := fixedSchedule(steadyFirstQ, steadyQGap, steadyQueries)
	s.attempted = len(qs)
	s.drive = driveSchedule(s, qs, seed)
	s.collect = collectSchedule(s, qs)
	return s
}

func buildChurn(seed int64, o *obs.Obs, tm *setupTimes) *sim {
	trace := timedTrace(tm, func() *avail.Trace {
		return avail.GenerateGnutella(avail.DefaultGnutellaConfig(churnN, churnEnd, worldSeed))
	})
	cfg := clusterConfig(trace, seed, o)
	cfg.Net.LossRate = churnLoss
	// The chaos harness's settings (core.RunChaos): compressed
	// maintenance, hedging at p95, more dissemination retries.
	cfg.Node.Meta.PushPeriod = 5 * time.Minute
	cfg.Node.Agg.RefreshPeriod = 2 * time.Minute
	cfg.Node.Agg.HedgeQuantile = 0.95
	cfg.Node.Agg.QueryTTL = 30 * time.Minute
	cfg.Node.Dissem.MaxRetries = 6
	s := &sim{trace: trace, n: churnN, end: churnEnd}
	s.c = timedCluster(tm, cfg)

	t0 := time.Now()
	inj := fault.NewInjector(s.c.Net, hourlyStraggler(churnEnd), seed)
	s.c.Net.SetFaultHook(inj)
	s.c.Ring.SetReachability(inj.Reachable)
	inj.OnChange(s.c.Ring.ReachabilityChanged)
	inj.Start()
	tm.clusterS += time.Since(t0).Seconds()

	qs := fixedSchedule(churnFirstQ, churnQGap, churnQueries)
	s.attempted = len(qs)
	s.drive = driveSchedule(s, qs, seed)
	s.collect = collectSchedule(s, qs)
	return s
}

// hourlyStraggler repeats the built-in straggler scenario's injections
// every hour up to end.
func hourlyStraggler(end time.Duration) fault.Scenario {
	base, _ := fault.Builtin("straggler", false)
	sc := fault.Scenario{Name: "straggler-hourly", QueryAt: base.QueryAt}
	for h := time.Duration(0); h+base.FinalHeal() <= end; h += time.Hour {
		for _, in := range base.Injections {
			in.At += h
			sc.Injections = append(sc.Injections, in)
		}
	}
	return sc
}

// serveStep is the RunUntil granularity of the serve workload; the
// service's arrivals are scheduler events, so stepping only bounds spans.
const serveStep = 5 * time.Minute

func buildServe(seed int64, o *obs.Obs, tm *setupTimes) *sim {
	w := qserve.Light(1)
	w.Name = "serve"
	w.Loads[1].PerHour = serveBatchPerHour
	w.Start, w.Window, w.Drain = serveStart, serveWindow, serveDrain
	// One fixed query log, like the trace: arrival times, templates and
	// injector picks come from the world seed, so every run offers the
	// same load; the run's seed varies the data and protocol randomness
	// under it.
	cfg := qserve.DefaultConfig(serveN, worldSeed, w)
	cfg.Obs = o
	// qserve.Run's cluster, built here so the benchmark can time set-up
	// and run separately and read the cluster afterwards.
	days := float64(w.End()+time.Hour) / float64(24*time.Hour)
	cfg.RowsPerUnit = 200 * days * float64(cfg.N) / float64(cfg.MaxCost)
	trace := timedTrace(tm, func() *avail.Trace {
		return avail.GenerateFarsite(avail.DefaultFarsiteConfig(serveN, w.End()+time.Hour, worldSeed))
	})
	ccfg := clusterConfig(trace, seed, o)
	ccfg.Workload.MeanFlowsPerDay = 200
	ccfg.Node.Agg.QueryTTL = 4 * time.Hour
	s := &sim{trace: trace, n: serveN, end: w.End()}
	s.c = timedCluster(tm, ccfg)
	t0 := time.Now()
	svc := qserve.NewService(cfg, s.c)
	svc.Schedule()
	tm.clusterS += time.Since(t0).Seconds()

	arrivals := w.Arrivals(cfg.Seed)
	s.drive = func(rec *recorder) {
		for t := serveStep; t < s.end; t += serveStep {
			rec.runUntil(s.c, t)
		}
		rec.runUntil(s.c, s.end)
	}
	s.collect = func(lc *lifecycle, checks *[]string) []queryOutcome {
		if lc == nil {
			return nil
		}
		return lc.serveOutcomes(s, arrivals, checks)
	}
	s.attempted = len(arrivals)
	s.arrivals = arrivals
	s.extra = func(fp map[string]float64) {
		reg := s.c.Obs().Registry()
		for class := qserve.ClassID(0); class < qserve.NumClasses; class++ {
			fp["qserve_arrivals_"+class.String()] = float64(reg.Counter("qserve_arrivals_" + class.String()).Value())
			fp["qserve_shed_"+class.String()] = float64(reg.Counter("qserve_shed_" + class.String()).Value())
		}
		fp["qserve_no_endsystem"] = float64(reg.Counter("qserve_no_endsystem").Value())
		fp["arrivals_planned"] = float64(len(arrivals))
	}
	return s
}

// update is one result update at the injector.
type update struct {
	at           time.Duration
	rows         int64
	contributors int64
}

// checkUpdates fails the run when an update holds more rows than exist
// or more contributors than endsystems.
func checkUpdates(ups []update, truth int64, n int, what string, checks *[]string) {
	for _, u := range ups {
		if u.rows > truth {
			*checks = append(*checks, fmt.Sprintf("%s: update at %v holds %d rows, oracle %d", what, u.at, u.rows, truth))
			return
		}
		if u.contributors > int64(n) {
			*checks = append(*checks, fmt.Sprintf("%s: update at %v has %d contributors, N=%d", what, u.at, u.contributors, n))
			return
		}
	}
}

// queryOutcome is one attempted query's user-visible result.
type queryOutcome struct {
	// t90 and t99 are virtual seconds from arrival until the result first
	// held 90% (99%) of the rows it holds at end of run; a query that never
	// got there is charged arrival to end of run.
	t90, t99 float64
	reached  bool // reached 90%
	// compl is final rows / the predictor's expected total, NaN without a
	// predictor.
	compl float64
}

// outcomeOf derives a query's outcome from its update log. ran is false
// for queries that were never injected (shed or censored).
func outcomeOf(arrival, end time.Duration, ups []update, expected float64, ran bool) queryOutcome {
	charged := (end - arrival).Seconds()
	o := queryOutcome{t90: charged, t99: charged, compl: math.NaN()}
	if !ran || len(ups) == 0 {
		return o
	}
	final := ups[len(ups)-1].rows
	if t, ok := firstReaching(ups, final, 0.90); ok {
		o.t90, o.reached = (t - arrival).Seconds(), true
	}
	if t, ok := firstReaching(ups, final, 0.99); ok {
		o.t99 = (t - arrival).Seconds()
	}
	if expected > 0 {
		o.compl = 100 * float64(final) / expected
	}
	return o
}

func firstReaching(ups []update, final int64, frac float64) (time.Duration, bool) {
	need := int64(math.Ceil(frac * float64(final)))
	for _, u := range ups {
		if u.rows >= need {
			return u.at, true
		}
	}
	return 0, false
}
