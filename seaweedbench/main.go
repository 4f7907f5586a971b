// Command seaweedbench is the repository's benchmark: it runs one Seaweed
// workload (steady, serve or churn) through the public entry points of
// the simulator, checks its outputs, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 a separate traced pass gives the per-layer
// ones. See README.md for the workloads, metrics and rules.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/simnet"
)

func main() {
	name := flag.String("workload", "", "workload: steady, serve or churn")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "wall seconds to keep repeating timed passes for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "seaweedbench: unknown workload %q (want steady, serve or churn)\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "seaweedbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	// One simulation goroutine; the runtime may use the second CPU for
	// garbage collection.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed)
	} else {
		res = runUntraced(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seaweedbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout, w, *seed)
	if !res.correct() {
		os.Exit(1)
	}
}

// passMode selects how a pass is instrumented.
type passMode int

const (
	// timedPass runs with tracing off; its wall times are reported.
	timedPass passMode = iota
	// checkPass runs each sub-seed first: it warms the heap up, observes
	// the queries (on serve through the lifecycle sink, the only way to see
	// per-query results) and is the reference the timed passes of the
	// sub-seed must reproduce. Its wall times are not reported.
	checkPass
	// tracedPass wraps every handler, records spans and profiles.
	tracedPass
)

// pass is one simulation of a workload at one sub-seed.
type pass struct {
	seed   int64
	timed  bool // wall times count toward the reported metrics
	setup  setupTimes
	setupS float64
	runS   float64
	heapMB float64
	events uint64
	allocs uint64 // heap allocations during the run phase

	queries   []queryOutcome // nil when this pass cannot observe them
	attempted int            // queries attempted, every class
	queryB    float64        // simnet.ClassQuery bytes sent
	maintB    float64        // ClassPastry + ClassMaintenance bytes sent
	pastryB   float64
	metaB     float64
	onlineS   float64 // endsystem-seconds online over the horizon
	fp        map[string]float64
	checks    []string

	reg *obs.Registry
	ctr map[string]float64 // counterNames at end of run, before the checks
	rec *recorder
	hc  *handlerClock
	lc  *lifecycle
	sim *sim
}

func runPass(w workload, seed int64, mode passMode) *pass {
	p := &pass{seed: seed}
	o := obs.New()
	if mode != timedPass && w.lifecycle {
		p.lc = &lifecycle{}
		o.SetTracer(obs.NewTracer(p.lc))
	}
	p.timed = mode == timedPass
	if mode == tracedPass {
		p.rec = newRecorder()
		p.hc = newHandlerClock()
	}
	runtime.GC()

	t0 := time.Now()
	sp := p.rec.begin("setup")
	p.setup.rec = p.rec
	s := w.build(seed, o, &p.setup)
	p.rec.end(sp)
	p.setupS = time.Since(t0).Seconds()
	p.sim = s
	if mode == tracedPass {
		bindTimed(s.c, p.hc)
		p.rec.clock = s.c.Sched.Now
		if p.lc != nil {
			p.lc.onArrival = func(ev obs.Event) { p.rec.mark("arrival", ev.T) }
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	ev0 := s.c.Sched.Executed()
	t1 := time.Now()
	sp = p.rec.begin("run")
	s.drive(p.rec)
	p.rec.end(sp)
	p.runS = time.Since(t1).Seconds()
	runtime.ReadMemStats(&ms)
	p.allocs = ms.Mallocs - mallocs0
	p.events = s.c.Sched.Executed() - ev0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	// Counters first: the oracle the checks consult scans tables too.
	p.reg = s.c.Obs().Registry()
	p.ctr = make(map[string]float64, len(counterNames))
	for _, c := range counterNames {
		p.ctr[c] = float64(p.reg.Counter(c).Value())
	}
	p.queries = s.collect(p.lc, &p.checks)
	p.attempted = s.attempted
	st := s.c.Net.Stats()
	p.queryB = st.TotalTx(simnet.ClassQuery)
	p.pastryB = st.TotalTx(simnet.ClassPastry)
	p.metaB = st.TotalTx(simnet.ClassMaintenance)
	p.maintB = p.pastryB + p.metaB
	for _, prof := range s.trace.Profiles {
		p.onlineS += prof.UpTimeIn(0, s.end).Seconds()
	}
	p.fp = p.fingerprint()
	logf("%s pass, seed %d: setup %.3fs, run %.3fs, %d events, heap %.1f MiB",
		[...]string{"timed", "check", "traced"}[mode], seed, p.setupS, p.runS, p.events, p.heapMB)
	return p
}

// release drops the pass's cluster so the next pass's heap measurement
// does not include it.
func (p *pass) release() {
	p.sim, p.lc, p.reg = nil, nil, nil
}

// fingerprint collects the pass's deterministic outputs: anything here
// must be identical for two passes of one sub-seed.
func (p *pass) fingerprint() map[string]float64 {
	fp := map[string]float64{
		"events":       float64(p.events),
		"query_bytes":  p.queryB,
		"pastry_bytes": p.pastryB,
		"meta_bytes":   p.metaB,
		"attempted":    float64(p.attempted),
		"virtual_end":  float64(p.sim.c.Sched.Now()),
	}
	for c, v := range p.ctr {
		fp[c] = v
	}
	for _, h := range []string{"query_time_to_90pct_ns", "query_time_to_99pct_ns",
		"qserve_latency_interactive_ns", "qserve_wait_interactive_ns"} {
		hist := p.reg.DurationHistogram(h)
		fp[h+".count"] = float64(hist.Count())
		fp[h+".max"] = float64(hist.Max())
	}
	if p.queries != nil {
		for k, v := range queryMetrics(p.queries) {
			fp[k] = v
		}
	}
	if p.sim.extra != nil {
		p.sim.extra(fp)
	}
	return fp
}

// counterNames are the obs counters a pass records; all are
// deterministic for a sub-seed.
var counterNames = []string{
	"net_sends", "net_lost", "fault_drops", "fault_dup_msgs",
	"pastry_joins", "pastry_leafset_repairs",
	"meta_pushes", "meta_rereplications",
	"dissem_range_msgs", "dissem_reissues", "dissem_giveups",
	"aggtree_submissions", "aggtree_resubmits", "aggtree_takeovers", "aggtree_hedges_issued",
	"aggtree_hedges_won", "aggtree_hedge_reasserts", "aggtree_dup_contributions",
	"rows_scanned", "rows_matched", "blocks_pruned", "plan_cache_hits", "plan_cache_misses",
	"queries_completed",
}

// sameOutputs compares the keys two fingerprints share.
func sameOutputs(a, b *pass) []string {
	var diffs []string
	for _, k := range sortedKeys(a.fp) {
		if bv, ok := b.fp[k]; ok && bv != a.fp[k] {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", k, a.fp[k], bv))
		}
	}
	return diffs
}

// result is one run's outcome: metrics in print order plus checks.
type result struct {
	traced    bool
	metrics   []metric // the JSON result
	infos     []metric // printed only
	notes     []string
	attempted int
	checks    []string
	fp        map[string]any
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

// info adds a metric that is printed but left out of the JSON result.
func (r *result) info(name string, value float64, unit, note string) {
	r.infos = append(r.infos, metric{name, value, unit, note})
}

// addQueryOutcomes reports the virtual-time query outcomes. They are
// deterministic per seed but not steady across seeds (see README.md), so
// the untraced run prints them without gating them, and the traced run
// reports them as per-layer metrics.
func addQueryOutcomes(r *result, qm map[string]float64, n float64) {
	add := r.info
	prefix := "q_"
	if r.traced {
		add, prefix = r.add, "query."
	}
	add(prefix+"t90_p50_s", qm["t90_p50"], "s", fmt.Sprintf("n=%.0f, %.0f beyond", n, beyond(n, 0.5)))
	add(prefix+"t90_p90_s", qm["t90_p90"], "s", fmt.Sprintf("n=%.0f, %.0f beyond", n, beyond(n, 0.9)))
	add(prefix+"t99_p50_s", qm["t99_p50"], "s", fmt.Sprintf("n=%.0f, %.0f beyond", n, beyond(n, 0.5)))
	add(prefix+"t99_p90_s", qm["t99_p90"], "s", fmt.Sprintf("n=%.0f, %.0f beyond", n, beyond(n, 0.9)))
	add(prefix+"t90_mean_s", qm["t90_mean"], "s", fmt.Sprintf("n=%.0f", n))
	add(prefix+"t99_mean_s", qm["t99_mean"], "s", fmt.Sprintf("n=%.0f", n))
	add(prefix+"compl_pct", qm["compl_mean"], "%", fmt.Sprintf("mean over %.0f queries with a predictor", qm["compl_n"]))
	add(prefix+"fail_pct", qm["fail_pct"], "%", fmt.Sprintf("%.0f of %.0f never reached 90%%", qm["failed"], n))
}

func (r *result) correct() bool { return len(r.checks) == 0 }

// subSeed derives the k-th sub-seed of a run.
func subSeed(seed int64, k int) int64 { return runner.SplitSeed(seed, int64(k)) }

// runUntraced measures the end-to-end metrics. Every sub-seed runs once
// as a check pass; timed passes then cycle through the sub-seeds, each at
// least once, until the run has measured for at least budget.
func runUntraced(w workload, seed int64, budget time.Duration) *result {
	r := &result{}
	start := time.Now()
	first := make([]*pass, w.subSeeds)
	var all []*pass
	check := func(p *pass, k int) {
		p.release()
		all = append(all, p)
		r.attempted += p.attempted
		for _, c := range p.checks {
			r.checks = append(r.checks, fmt.Sprintf("seed %d: %s", p.seed, c))
		}
		if first[k] == nil {
			first[k] = p
			return
		}
		for _, d := range sameOutputs(first[k], p) {
			r.checks = append(r.checks, fmt.Sprintf("seed %d not deterministic: %s", p.seed, d))
		}
	}
	for k := 0; k < w.subSeeds; k++ {
		check(runPass(w, subSeed(seed, k), checkPass), k)
	}
	for i := 0; i < w.subSeeds || time.Since(start) < budget; i++ {
		check(runPass(w, subSeed(seed, i%w.subSeeds), timedPass), i%w.subSeeds)
	}

	var setups []float64
	runs := make([][]float64, w.subSeeds)
	heaps := make([][]float64, w.subSeeds)
	allocs := make([][]float64, w.subSeeds)
	var queries []queryOutcome
	var queryB, maintB, onlineS float64
	attempted := 0
	for k := 0; k < w.subSeeds; k++ {
		var withQueries *pass
		for _, p := range all {
			if p.seed != subSeed(seed, k) {
				continue
			}
			if p.timed {
				setups = append(setups, p.setupS)
				runs[k] = append(runs[k], p.runS)
				heaps[k] = append(heaps[k], p.heapMB)
				allocs[k] = append(allocs[k], float64(p.allocs)/float64(p.events))
			}
			if withQueries == nil && p.queries != nil {
				withQueries = p
			}
		}
		if withQueries == nil {
			r.checks = append(r.checks, fmt.Sprintf("sub-seed %d: no pass observed its queries", k))
			continue
		}
		queries = append(queries, withQueries.queries...)
		queryB += withQueries.queryB
		maintB += withQueries.maintB
		onlineS += withQueries.onlineS
		attempted += withQueries.attempted
	}
	var runMed, heapMed, allocMed float64
	for k := range runs {
		runMed += median(runs[k]) / float64(len(runs))
		heapMed += median(heaps[k]) / float64(len(heaps))
		allocMed += median(allocs[k]) / float64(len(allocs))
	}
	qm := queryMetrics(queries)
	n := float64(len(queries))
	timedPasses := len(setups)
	r.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", timedPasses))
	r.add("heap_live_mb", heapMed, "MiB", "live heap after a forced GC at end of run")
	r.add("allocs_per_event", allocMed, "count", "heap allocations of the run phase / events executed")
	r.add("q_ok_pct", 100-qm["fail_pct"], "%", fmt.Sprintf("%.0f of %.0f queries reached 90%%", n-qm["failed"], n))
	r.add("query_kb_per_q", queryB/1024/float64(max(attempted, 1)), "KiB", fmt.Sprintf("%d queries attempted, every class", attempted))
	r.add("maint_bps_per_es", maintB/onlineS, "B/s", fmt.Sprintf("%.0f endsystem-hours online", onlineS/3600))
	// Wall time drifts with the host's load by more than a gate can
	// bound (see README.md), so run_s is printed but not gated.
	r.info("run_s", runMed, "s", fmt.Sprintf("mean over %d sub-seeds of the median of %d timed passes", w.subSeeds, timedPasses))
	addQueryOutcomes(r, qm, n)
	r.notes = append(r.notes,
		"arrivals are open-loop in virtual time: the schedule never waits for the system, so generator lateness is 0 by construction",
		fmt.Sprintf("%d passes: %d timed, %d sub-seeds pooled for virtual-time metrics", len(all), timedPasses, w.subSeeds))
	r.fp = fingerprintInfo(seed, w, map[string]float64{
		"q_t90_p50_s": n, "q_t90_p90_s": n, "q_t99_p50_s": n, "q_t99_p90_s": n,
		"setup_s": float64(timedPasses), "run_s": float64(timedPasses)})
	return r
}

// runTraced measures the per-layer metrics from the first sub-seed: a
// check pass warms the heap up, then one untraced and one traced pass
// follow. All three must agree on every virtual-time output.
func runTraced(w workload, seed int64) (*result, error) {
	r := &result{traced: true}
	s0 := subSeed(seed, 0)
	ref := runPass(w, s0, checkPass)
	ref.release()
	base := runPass(w, s0, timedPass)
	base.release()

	const memRate = 16 << 10
	runtime.MemProfileRate = memRate
	before := takeMemSnapshot()
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	tp := runPass(w, s0, tracedPass)
	pprof.StopCPUProfile()
	after := takeMemSnapshot()
	cpuPct, err := cpuShares(cpu.Bytes())
	if err != nil {
		return nil, err
	}
	allocPct := allocShares(before, after, memRate)

	for _, p := range []*pass{ref, base, tp} {
		r.attempted += p.attempted
		for _, c := range p.checks {
			r.checks = append(r.checks, fmt.Sprintf("seed %d: %s", p.seed, c))
		}
	}
	for _, d := range sameOutputs(ref, base) {
		r.checks = append(r.checks, fmt.Sprintf("seed %d not deterministic: %s", s0, d))
	}
	for _, d := range sameOutputs(ref, tp) {
		r.checks = append(r.checks, "traced pass changed a virtual-time output: "+d)
	}
	path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := tp.rec.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	reg := tp.reg
	ctr := func(name string) float64 { return tp.ctr[name] }
	hc := tp.hc
	hs := func(layer string) float64 { return float64(hc.layer(layer).ns) / 1e9 }
	runNS := tp.rec.totalNS("run_until")
	events := float64(base.events)

	r.add("simnet.events", events, "count", "events executed")
	r.add("simnet.ns_per_event", base.runS*1e9/events, "ns", "untraced run wall / events")
	r.add("simnet.allocs_per_event", float64(base.allocs)/events, "count", "untraced heap allocations / events")
	r.add("simnet.engine_self_s", float64(runNS-hc.totalNS())/1e9, "s", "RunUntil wall minus time in handlers (includes timer callbacks)")
	r.add("simnet.sends", ctr("net_sends"), "count", "")
	r.add("simnet.lost", ctr("net_lost"), "count", "dropped by the loss model")

	r.add("pastry.handler_s", hs("pastry"), "s", "includes application upcalls of routed messages")
	r.add("pastry.msgs", float64(hc.layer("pastry").msgs), "count", "deliveries of pastry payloads")
	r.add("pastry.hops_mean", reg.Histogram("pastry_hops").Mean(), "hops", "")
	r.add("pastry.joins", ctr("pastry_joins"), "count", "")
	r.add("pastry.leafset_repairs", ctr("pastry_leafset_repairs"), "count", "")
	r.add("pastry.kb", tp.pastryB/1024, "KiB", "ClassPastry bytes sent")

	r.add("metadata.handler_s", hs("metadata"), "s", "")
	r.add("metadata.pushes", ctr("meta_pushes"), "count", "")
	r.add("metadata.rereplications", ctr("meta_rereplications"), "count", "")
	r.add("metadata.kb", tp.metaB/1024, "KiB", "ClassMaintenance bytes sent")

	r.add("dissem.handler_s", hs("dissem"), "s", "direct (not routed) dissem messages")
	r.add("dissem.range_msgs", ctr("dissem_range_msgs"), "count", "")
	r.add("dissem.reissues", ctr("dissem_reissues"), "count", "")
	r.add("dissem.giveups", ctr("dissem_giveups"), "count", "")
	r.add("dissem.predictor_p50_ms", reg.DurationHistogram("dissem_predictor_latency_ns").Quantile(0.5)/1e6, "ms", "virtual")

	issued, won := ctr("aggtree_hedges_issued"), ctr("aggtree_hedges_won")
	r.add("aggtree.handler_s", hs("aggtree"), "s", "direct (not routed) aggtree messages")
	r.add("aggtree.submissions", ctr("aggtree_submissions"), "count", "")
	r.add("aggtree.resubmits", ctr("aggtree_resubmits"), "count", "")
	r.add("aggtree.takeovers", ctr("aggtree_takeovers"), "count", "")
	r.add("aggtree.hedges_issued", issued, "count", "")
	r.add("aggtree.hedge_win_pct", 100*won/max(issued, 1), "%", fmt.Sprintf("%.0f won of %.0f issued", won, issued))
	r.add("aggtree.reasserts", ctr("aggtree_hedge_reasserts"), "count", "")
	r.add("aggtree.dup_contributions", ctr("aggtree_dup_contributions"), "count", "")
	r.add("aggtree.fanin_p50_ms", reg.DurationHistogram("aggtree_fanin_delay_ns").Quantile(0.5)/1e6, "ms", "virtual")

	hits, misses := ctr("plan_cache_hits"), ctr("plan_cache_misses")
	r.add("relq.rows_scanned", ctr("rows_scanned"), "count", "")
	r.add("relq.rows_matched", ctr("rows_matched"), "count", "")
	r.add("relq.blocks_pruned", ctr("blocks_pruned"), "count", "")
	r.add("relq.plan_cache_hit_pct", 100*hits/max(hits+misses, 1), "%", fmt.Sprintf("%.0f lookups", hits+misses))

	r.add("core.handler_s", hs("core"), "s", "query-list handoff")

	var waits []float64
	var shed, peakOpen int
	if tp.sim.arrivals != nil {
		waits, shed, peakOpen = tp.lc.servePerLayer(tp.sim.arrivals)
	}
	r.add("qserve.shed", float64(shed), "count", "")
	r.add("qserve.wait_p50_s", nearestRank(waits, 0.5), "s", fmt.Sprintf("interactive, n=%d", len(waits)))
	r.add("qserve.wait_p90_s", nearestRank(waits, 0.9), "s", fmt.Sprintf("interactive, n=%d", len(waits)))
	r.add("qserve.peak_open", float64(peakOpen), "count", "")

	r.add("setup.trace_s", tp.setup.traceS, "s", "")
	r.add("setup.cluster_s", tp.setup.clusterS, "s", "")
	r.add("fault.drops", ctr("fault_drops"), "count", "")
	r.add("fault.dup_msgs", ctr("fault_dup_msgs"), "count", "")
	r.add("bench.trace_overhead_pct", 100*(tp.runS-base.runS)/base.runS, "%",
		fmt.Sprintf("traced run %.3fs vs untraced %.3fs", tp.runS, base.runS))

	addQueryOutcomes(r, queryMetrics(tp.queries), float64(len(tp.queries)))
	for _, pkg := range profiledPkgs {
		r.add(pkg+".cpu_pct", cpuPct[pkg], "%", "")
	}
	for _, pkg := range profiledPkgs {
		r.add(pkg+".alloc_pct", allocPct[pkg], "%", "share of allocated objects")
	}
	r.notes = append(r.notes,
		"timer callbacks cannot be wrapped from outside: they stay in simnet.engine_self_s; <pkg>.cpu_pct splits them by package",
		"spans written to "+path)
	r.fp = fingerprintInfo(seed, w, map[string]float64{"qserve.wait_p50_s": float64(len(waits)), "qserve.wait_p90_s": float64(len(waits))})
	return r, nil
}

// profiledPkgs are the packages reported by the CPU and allocation
// shares; "other" is everything outside repro/internal (runtime, GC).
var profiledPkgs = []string{"simnet", "pastry", "metadata", "dissem", "aggtree", "relq", "core",
	"qserve", "fault", "obs", "ids", "agg", "anemone", "avail", "predictor", "coords", "histogram", "other"}

func (r *result) print(out *os.File, w workload, seed int64) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(out, "# seaweedbench workload=%s seed=%d mode=%s\n", w.name, seed, mode)
	for _, n := range r.notes {
		fmt.Fprintf(out, "# %s\n", n)
	}
	fpJSON, _ := json.Marshal(r.fp)
	fmt.Fprintf(out, "# fingerprint %s\n", fpJSON)
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-28s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, m := range r.infos {
		fmt.Fprintf(out, "%-28s %16.6g %-6s %s (not gated)\n", m.name, m.value, m.unit, m.note)
	}
	for _, c := range r.checks {
		fmt.Fprintf(out, "# CHECK FAILED: %s\n", c)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = val{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), len(r.checks), metrics})
	fmt.Fprintln(out, string(line))
}

// fingerprintInfo identifies the build, host and sample sizes behind a
// result.
func fingerprintInfo(seed int64, w workload, samples map[string]float64) map[string]any {
	return map[string]any{
		"commit":     commit(),
		"source":     sourceDigest(),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"seed":       seed,
		"sub_seeds":  w.subSeeds,
		"samples":    samples,
		"engine":     "serial wheel (Shards 0), one simulation goroutine",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "seaweedbench: "+format+"\n", args...)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
