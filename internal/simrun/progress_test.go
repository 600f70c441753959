package simrun

import (
	"context"
	"runtime"
	"testing"

	"minsim/internal/metrics"
)

// TestProgressSerialized: with several workers, Progress calls never
// overlap and arrive in update order, as Options documents. The
// callback is deliberately not thread-safe: under -race an overlapping
// call is a reported data race, and without it the overlap flag or an
// out-of-order snapshot shows one.
func TestProgressSerialized(t *testing.T) {
	const n = 64
	p := NewPlan()
	p.AddFunc(n, func(i int) (metrics.Point, error) {
		runtime.Gosched()
		return metrics.Point{Offered: float64(i)}, nil
	})
	var (
		inside, overlap bool
		snaps           []Counters
	)
	progress := func(c Counters) {
		if inside {
			overlap = true
		}
		inside = true
		snaps = append(snaps, c)
		runtime.Gosched()
		inside = false
	}
	if err := p.Execute(context.Background(), Options{Workers: 4, Progress: progress}); err != nil {
		t.Fatal(err)
	}
	if overlap {
		t.Error("two Progress calls overlapped")
	}
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		if b.Done < a.Done || b.Executed < a.Executed {
			t.Fatalf("snapshot %d went backwards: %+v after %+v", i, b, a)
		}
	}
	if len(snaps) == 0 || snaps[len(snaps)-1].Done != n {
		t.Fatalf("last snapshot %+v, want Done = %d", snaps[len(snaps)-1], n)
	}
}
