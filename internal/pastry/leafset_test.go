package pastry

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ids"
)

// TestLeafsetReadersMatchCopy checks the in-place leafset readers against
// the copying Leafset: AppendLeafset yields the same members in the same
// order, and LeafInRange agrees with a scan of the copy.
func TestLeafsetReadersMatchCopy(t *testing.T) {
	_, _, nodes, _ := testRing(t, 64, 3)
	rng := rand.New(rand.NewSource(5))
	var buf []NodeRef
	seen := map[bool]bool{}
	for _, n := range nodes {
		ls := n.Leafset()
		buf = n.AppendLeafset(buf[:0])
		if !slices.Equal(buf, ls) {
			t.Fatalf("AppendLeafset = %v, Leafset = %v", buf, ls)
		}
		// Ranges bounded just inside or just outside two members, so both
		// answers occur.
		for trial := 0; trial < 20; trial++ {
			lo := ls[rng.Intn(len(ls))].ID.AddUint64(uint64(rng.Intn(2)))
			hi := ls[rng.Intn(len(ls))].ID.Sub(ids.FromUint64(uint64(rng.Intn(2))))
			want := false
			for _, m := range ls {
				if m.ID.InRange(lo, hi) {
					want = true
				}
			}
			if got := n.LeafInRange(lo, hi); got != want {
				t.Fatalf("LeafInRange(%v, %v) = %v, want %v", lo.Short(), hi.Short(), got, want)
			}
			seen[want] = true
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("trials covered only %v", seen)
	}
}

// TestLeafsetReadersAllocFree checks that reading the leafset in place
// allocates nothing (AppendLeafset once its buffer has grown).
func TestLeafsetReadersAllocFree(t *testing.T) {
	_, _, nodes, _ := testRing(t, 64, 3)
	n := nodes[0]
	lo, hi := n.ID(), n.ID().AddUint64(1<<40)
	buf := n.AppendLeafset(nil)
	allocs := testing.AllocsPerRun(100, func() {
		n.LeafInRange(lo, hi)
		buf = n.AppendLeafset(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("in-place leafset reads allocated %.1f objects per run, want 0", allocs)
	}
}
