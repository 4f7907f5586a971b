package fault

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// The invariants the checker enforces on every chaos run. The fault layer
// may delay, reorder, duplicate, and destroy messages and whole regions,
// but it never forges data — so these must hold no matter the scenario.
const (
	// InvariantExactlyOnce: no row is aggregated twice. The root's
	// result never exceeds the ground-truth count of matching rows, and
	// the contributor count never exceeds the population.
	InvariantExactlyOnce = "exactly_once_aggregation"
	// InvariantCompleteness: after every fault has healed and the
	// protocols have had their repair window, every query reaches 100%
	// of the reachable ground truth.
	InvariantCompleteness = "eventual_completeness"
	// InvariantMetaConvergence: after heal, every live endsystem's
	// metadata record is present and marked up at a majority of its
	// replica set.
	InvariantMetaConvergence = "metadata_convergence"
	// InvariantNoOrphans: after query TTLs expire, no aggregation-tree
	// vertex and no dissemination range task remains (no leaked per-query
	// state, no orphaned subtrees).
	InvariantNoOrphans = "no_orphan_vertices"
	// InvariantTraceVisibility: every scheduled injection produced its
	// activation event in the obs trace (the fault layer cannot act
	// invisibly).
	InvariantTraceVisibility = "fault_trace_visibility"
	// InvariantNoGiveups: dissemination never permanently abandons a
	// subrange. Adaptive backoff must grow retry windows to outlast every
	// transient fault window in the scenario, and reissue route diversity
	// must steer around dead delegates — a giveup means the retry policy
	// was out-persevered by a fault it was designed to ride out.
	InvariantNoGiveups = "no_dissemination_giveup"
)

// Checker is the always-on invariant checker. It hangs off the obs trace
// as a Sink (wrap it with WireTracer to also keep an existing sink) and
// accumulates violations; end-of-run checks are pushed in by the chaos
// harness via Check. With FatalOnViolation set, the first violation
// panics — useful under -race in CI where a late aggregate check could
// mask the instant of corruption.
type Checker struct {
	FatalOnViolation bool

	now        func() time.Duration
	violations []Violation
	verdicts   []InvariantVerdict
	seen       map[obs.Kind]int

	// recorder is the always-on flight recorder: a bounded ring of the
	// most recent trace events, costing fixed memory no matter how long
	// the run. On the first violation its contents are frozen into
	// flight, so the report shows the virtual-time moments that led up
	// to the failure even when no trace file was requested.
	recorder *obs.RingSink
	flight   []obs.Event
}

// FlightRecorderDepth is how many recent trace events the checker's
// always-on flight recorder retains.
const FlightRecorderDepth = 512

// NewChecker returns a checker timestamping violations with now (pass the
// scheduler's Now; nil timestamps everything 0).
func NewChecker(now func() time.Duration) *Checker {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Checker{
		now:      now,
		seen:     make(map[obs.Kind]int),
		recorder: obs.NewRingSink(FlightRecorderDepth),
	}
}

// Record implements obs.Sink so the checker can observe the event stream
// directly.
func (c *Checker) Record(ev obs.Event) { c.ObserveEvent(ev) }

// ObserveEvent feeds one trace event to the checker. Fault-injection
// kinds are counted for the trace-visibility invariant.
func (c *Checker) ObserveEvent(ev obs.Event) {
	c.recorder.Record(ev)
	switch ev.Kind {
	case obs.KindFaultPartition, obs.KindFaultBurst, obs.KindFaultJitter,
		obs.KindFaultSpike, obs.KindFaultDup, obs.KindFaultStraggle,
		obs.KindFaultCrash, obs.KindFaultRestart, obs.KindFaultHeal,
		obs.KindDissemGiveup,
		// Cancels are counted so completeness-style invariants can tell an
		// explicitly abandoned query from one that failed to finish.
		obs.KindCancel:
		c.seen[ev.Kind]++
	}
}

// FaultEvents returns how many events of the fault kind were observed.
func (c *Checker) FaultEvents(kind obs.Kind) int { return c.seen[kind] }

// ObserveResult checks one query result against ground truth for the
// exactly-once invariant: aggregated rows must not exceed the true
// matching rows, and contributors must not exceed the population.
func (c *Checker) ObserveResult(query string, rows, truth float64, contributors, population int64) {
	const eps = 1e-6
	if rows > truth+eps {
		c.Violate(InvariantExactlyOnce,
			fmt.Sprintf("query %s aggregated %.3f rows, ground truth %.3f (double counting)", query, rows, truth))
	}
	if population > 0 && contributors > population {
		c.Violate(InvariantExactlyOnce,
			fmt.Sprintf("query %s counted %d contributors out of %d endsystems", query, contributors, population))
	}
}

// Violate records one invariant failure (and panics under
// FatalOnViolation).
func (c *Checker) Violate(invariant, detail string) {
	v := Violation{At: c.now(), Invariant: invariant, Detail: detail}
	c.violations = append(c.violations, v)
	if c.flight == nil {
		// Freeze the flight recorder at the first violation: later events
		// (including the aftermath of this failure) must not evict the
		// moments that led up to it.
		c.flight = c.recorder.Events()
	}
	if c.FatalOnViolation {
		panic(fmt.Sprintf("fault invariant %s violated at %s: %s", invariant, v.At, detail))
	}
}

// Check records an end-of-run verdict for an invariant, also logging a
// violation when it fails. Returns ok unchanged so call sites can chain.
func (c *Checker) Check(invariant string, ok bool, detail string) bool {
	c.verdicts = append(c.verdicts, InvariantVerdict{Invariant: invariant, Pass: ok, Detail: detail})
	if !ok {
		c.Violate(invariant, detail)
	}
	return ok
}

// SealInvariant records an end-of-run verdict for an invariant judged
// incrementally during the run (via Violate/ObserveResult): pass iff no
// violation of it was recorded.
func (c *Checker) SealInvariant(invariant, okDetail string) bool {
	for _, v := range c.violations {
		if v.Invariant == invariant {
			c.verdicts = append(c.verdicts, InvariantVerdict{Invariant: invariant, Pass: false, Detail: v.Detail})
			return false
		}
	}
	c.verdicts = append(c.verdicts, InvariantVerdict{Invariant: invariant, Pass: true, Detail: okDetail})
	return true
}

// VerifyTraceVisibility checks that every injection executed in the
// report produced its activation event(s) in the trace, and records the
// verdict.
func (c *Checker) VerifyTraceVisibility(r *Report) bool {
	expect := make(map[obs.Kind]int)
	for _, in := range r.Injections {
		switch in.Type {
		case Partition:
			expect[obs.KindFaultPartition]++
		case BurstLoss:
			expect[obs.KindFaultBurst]++
		case Jitter:
			expect[obs.KindFaultJitter]++
		case Spike:
			expect[obs.KindFaultSpike]++
		case Duplicate:
			expect[obs.KindFaultDup]++
		case Straggler:
			expect[obs.KindFaultStraggle]++
		case Crash:
			expect[obs.KindFaultCrash] += in.Endpoints
		}
	}
	ok := true
	detail := fmt.Sprintf("%d injections traced", len(r.Injections))
	for _, kind := range []obs.Kind{
		obs.KindFaultPartition, obs.KindFaultBurst, obs.KindFaultJitter,
		obs.KindFaultSpike, obs.KindFaultDup, obs.KindFaultStraggle,
		obs.KindFaultCrash,
	} {
		if c.seen[kind] < expect[kind] {
			ok = false
			detail = fmt.Sprintf("kind %s: %d events traced, %d injected", kind, c.seen[kind], expect[kind])
			break
		}
	}
	return c.Check(InvariantTraceVisibility, ok, detail)
}

// Violations returns the accumulated violations in observation order.
func (c *Checker) Violations() []Violation { return c.violations }

// Verdicts returns the end-of-run invariant verdicts in check order.
func (c *Checker) Verdicts() []InvariantVerdict { return c.verdicts }

// FillReport copies the checker's verdicts and violations into the
// report.
func (c *Checker) FillReport(r *Report) {
	r.Invariants = append(r.Invariants, c.verdicts...)
	r.Violations = append(r.Violations, c.violations...)
	r.FlightRecorder = append(r.FlightRecorder, c.flight...)
}

// FlightRecording returns the events frozen at the first violation (nil
// on clean runs).
func (c *Checker) FlightRecording() []obs.Event { return c.flight }

// FanoutSink tees trace events to the checker and an optional downstream
// sink, letting -trace output coexist with the always-on checker.
type FanoutSink struct {
	Checker *Checker
	Next    obs.Sink
}

// Record implements obs.Sink.
func (f FanoutSink) Record(ev obs.Event) {
	if f.Checker != nil {
		f.Checker.ObserveEvent(ev)
	}
	if f.Next != nil {
		f.Next.Record(ev)
	}
}
