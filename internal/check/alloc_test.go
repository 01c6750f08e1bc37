package check

import (
	"testing"

	"cfc/internal/metrics"
	"cfc/internal/mutex"
)

// TestReferenceExploreAllocations holds the reference exploration to
// allocation-free nodes: the visited table, the live sets, the sibling
// skip set and the schedule are all reused, so an exploration allocates
// a bounded number of buffers (the table's doublings, one live buffer
// per depth, the session's arena) however many states it visits. One
// allocation per hundred states is far above that and far below one per
// node.
func TestReferenceExploreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("a 323,772-state exploration is too slow under the race detector")
	}
	build := symMutexBuild(mutex.TTASLock{}, 4)
	opts := Options{MaxDepth: 120, MaxStates: 1 << 19, CollapseSpins: true}
	var res Result
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if res, err = Explore(build, metrics.CheckMutualExclusion, opts); err != nil {
			t.Fatal(err)
		}
	})
	if res.States != 323772 || res.Runs == 0 || res.Truncated || res.Violation != nil {
		t.Fatalf("ttas-lock n=4: %+v, want 323772 states, proved", res)
	}
	if allocs > float64(res.States)/100 {
		t.Fatalf("ttas-lock n=4: %.0f allocations for %d states, want at most one per 100 states",
			allocs, res.States)
	}
	t.Logf("%.0f allocations for %d states", allocs, res.States)
}
