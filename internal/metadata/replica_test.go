package metadata

import (
	"slices"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/pastry"
)

// TestLocalReplicaSetIsClosest checks localReplicaSet against a sort of a
// fresh leafset copy: the k members of leafset ∪ self closest to the
// subject, in the same order.
func TestLocalReplicaSetIsClosest(t *testing.T) {
	h := newHarness(t, 32, 2)
	h.sched.RunUntil(time.Minute)
	k := DefaultConfig().K
	for i, s := range h.services {
		for _, subject := range []ids.ID{h.nodes[(i+1)%len(h.nodes)].ID(), h.nodes[i].ID().AddUint64(12345)} {
			want := append(s.node.Leafset(), s.node.Ref())
			slices.SortFunc(want, func(a, b pastry.NodeRef) int {
				return subject.AbsDistance(a.ID).Cmp(subject.AbsDistance(b.ID))
			})
			want = want[:min(k, len(want))]
			if got := s.localReplicaSet(subject, k); !slices.Equal(got, want) {
				t.Fatalf("localReplicaSet = %v, want %v", got, want)
			}
			if got, want := s.withinLocalClosest(subject, k), slices.Contains(want, s.node.Ref()); got != want {
				t.Fatalf("withinLocalClosest = %v, want %v", got, want)
			}
		}
	}
}

// TestWithinLocalClosestAllocFree checks that the eviction test sorts a
// reused buffer instead of allocating a leafset copy and a map per call.
func TestWithinLocalClosestAllocFree(t *testing.T) {
	h := newHarness(t, 32, 2)
	h.sched.RunUntil(time.Minute)
	s := h.services[0]
	subject := h.nodes[1].ID()
	allocs := testing.AllocsPerRun(100, func() {
		s.withinLocalClosest(subject, 2*DefaultConfig().K)
	})
	if allocs != 0 {
		t.Fatalf("withinLocalClosest allocated %.1f objects per call, want 0", allocs)
	}
}
