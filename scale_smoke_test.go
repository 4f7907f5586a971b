// TestMillionSmoke (env-gated, `make scale-smoke`) is the memory ceiling
// check: an N=1,000,000 cluster must construct and complete a short
// horizon in-process.
package seaweed

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMillionSmoke is the N=10^6 memory-and-liveness smoke: the full
// cluster — trace, overlay, datasets, availability churn — must construct
// and run a short horizon without exhausting memory. Compact routing rows,
// lazy table fill and per-endpoint stats off are what make it fit.
// Env-gated because construction alone takes minutes; `make scale-smoke`
// (and the CI scale-smoke job) runs it.
func TestMillionSmoke(t *testing.T) {
	if os.Getenv("SEAWEED_SCALE_SMOKE") == "" {
		t.Skip("set SEAWEED_SCALE_SMOKE=1 to run the N=1M smoke")
	}
	const n = 1_000_000
	trace := FarsiteTrace(n, time.Hour, 7)
	c := New(WithTrace(trace), WithSeed(7),
		WithFlowsPerDay(2), WithConfig(func(cfg *ClusterConfig) {
			cfg.Net.PerEndpointStats = false
			cfg.Pastry.LazyTables = true
		}))
	if live := c.NumLive(); live < n/10 {
		t.Fatalf("only %d of %d endsystems live after bootstrap", live, n)
	}
	start := time.Now()
	c.RunUntil(5 * time.Minute)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("N=1M: %d events in %v, %d live, heap %.1f GiB",
		c.Sched.Executed(), time.Since(start), c.NumLive(), float64(ms.HeapAlloc)/(1<<30))
	if c.Sched.Executed() == 0 {
		t.Fatal("no events executed")
	}
}
