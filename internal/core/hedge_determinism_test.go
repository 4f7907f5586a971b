package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/avail"
	"repro/internal/obs"
	"repro/internal/relq"
)

// hedgeRun executes a full packet-level cluster with churn and one
// injected query, with interior-vertex hedging at the given quantile
// (0 = disabled), and returns the observable outputs: the metrics
// registry JSON, executed-event count, the query's full result log, and
// separately the final result tuple for cross-mode comparison.
func hedgeRun(t *testing.T, quantile float64) (output, final string) {
	t.Helper()
	tr := avail.GenerateFarsite(avail.DefaultFarsiteConfig(100, 36*time.Hour, 3))
	cfg := DefaultClusterConfig(tr, 3)
	cfg.Workload.MeanFlowsPerDay = 50
	cfg.Node.Agg.HedgeQuantile = quantile
	o := obs.New()
	cfg.Obs = o
	c := NewCluster(cfg)

	c.RunUntil(12 * time.Hour)
	inj := findLiveInjector(t, c)
	h := c.InjectQuery(inj, relq.MustParse("SELECT SUM(Bytes) FROM Flow WHERE SrcPort=80"))
	c.RunUntil(24 * time.Hour)

	var out bytes.Buffer
	fmt.Fprintf(&out, "executed=%d live=%d injector=%d\n", c.Sched.Executed(), c.NumLive(), inj)
	fmt.Fprintf(&out, "query=%s updates=%d\n", h.QueryID, len(h.Results))
	for _, u := range h.Results {
		fmt.Fprintf(&out, "  at=%d count=%d sum=%v contributors=%d\n",
			u.At, u.Partial.Count, u.Partial.Sum, u.Contributors)
	}
	if err := o.Registry().WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if len(h.Results) > 0 {
		u := h.Results[len(h.Results)-1]
		final = fmt.Sprintf("count=%d sum=%v contributors=%d",
			u.Partial.Count, u.Partial.Sum, u.Contributors)
	}
	return out.String(), final
}

// TestHedgedByteDeterminism: hedging must preserve the engine's
// byte-determinism guarantee — replica picks come from per-vertex seeded
// streams, so a hedged run's complete output (metrics, event count, every
// incremental result) is identical between two runs with the same seed.
func TestHedgedByteDeterminism(t *testing.T) {
	ref, _ := hedgeRun(t, 0.95)
	if len(ref) == 0 {
		t.Fatal("reference hedged run produced no output")
	}
	got, _ := hedgeRun(t, 0.95)
	diffLines(t, "hedged same-seed runs", ref, got)
}

// TestHedgedMatchesUnhedgedFinalResult: hedging substitutes equivalent
// versioned state, so for the same seed the hedged and unhedged runs must
// converge to the same final aggregate (hedge answers may shift when
// intermediate updates arrive, never what the query ultimately returns).
func TestHedgedMatchesUnhedgedFinalResult(t *testing.T) {
	_, hedged := hedgeRun(t, 0.95)
	_, plain := hedgeRun(t, 0)
	if hedged == "" || plain == "" {
		t.Fatalf("a run delivered no results (hedged=%q plain=%q)", hedged, plain)
	}
	if hedged != plain {
		t.Fatalf("final results differ: hedged %s vs unhedged %s", hedged, plain)
	}
}
