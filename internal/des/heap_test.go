package des

import (
	"container/heap"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

// oracleHeap is the seed kernel's container/heap implementation over
// (when, seq), kept as the reference the 4-ary heap is checked against.
type oracleEntry struct {
	when simtime.Time
	seq  uint64
}

type oracleHeap []oracleEntry

func (h oracleHeap) Len() int { return len(h) }
func (h oracleHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h oracleHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)   { *h = append(*h, x.(oracleEntry)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// TestQuickHeapMatchesOracle drives the 4-ary heap and the seed's
// container/heap with the same pseudo-random push/pop interleavings and
// requires every popped (when, seq) pair to match exactly.
func TestQuickHeapMatchesOracle(t *testing.T) {
	property := func(times []uint32, popEvery uint8) bool {
		var h eventHeap
		var o oracleHeap
		step := int(popEvery%5) + 1
		seq := uint64(0)
		check := func() bool {
			got := h.pop()
			want := heap.Pop(&o).(oracleEntry)
			return got.when == want.when && got.seq == want.seq
		}
		for i, raw := range times {
			// Compress the time range so duplicate timestamps (the
			// FIFO tie-break path) occur frequently.
			when := simtime.Time(raw % 64)
			h.push(heapEntry{when: when, seq: seq, idx: uint32(i)})
			heap.Push(&o, oracleEntry{when: when, seq: seq})
			seq++
			if i%step == step-1 {
				if !check() {
					return false
				}
			}
		}
		for h.len() > 0 {
			if !check() {
				return false
			}
		}
		return o.Len() == 0
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFreelistReusesEvents asserts the kernel recycles fired and
// canceled Event structs instead of allocating fresh ones.
func TestFreelistReusesEvents(t *testing.T) {
	s := New()
	e1 := s.At(10, "first", func() {})
	s.Drain()
	e2 := s.At(20, "second", func() {})
	if e1 != e2 {
		t.Fatal("fired event was not recycled for the next At")
	}
	if e2.Time() != 20 || e2.Label() != "second" || e2.Canceled() {
		t.Fatalf("recycled event carries stale state: %v %q %v", e2.Time(), e2.Label(), e2.Canceled())
	}
	s.Cancel(e2)
	s.Drain() // skips the canceled event, releasing it
	e3 := s.At(30, "third", func() {})
	if e3 != e2 {
		t.Fatal("canceled event was not recycled after being skipped")
	}
}

// TestLazyCancellationCounts asserts Pending ignores canceled events
// even while their heap slots are still occupied, and that skipped
// events never fire nor count as fired.
func TestLazyCancellationCounts(t *testing.T) {
	s := New()
	fired := 0
	var evs []*Event
	for i := 1; i <= 6; i++ {
		evs = append(evs, s.At(simtime.Time(i*10), "e", func() { fired++ }))
	}
	s.Cancel(evs[1])
	s.Cancel(evs[3])
	s.Cancel(evs[5])
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d with 3 live events, want 3", s.Pending())
	}
	s.Drain()
	if fired != 3 {
		t.Fatalf("fired %d callbacks, want 3", fired)
	}
	if s.Fired() != 3 {
		t.Fatalf("Fired() = %d, want 3", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", s.Pending())
	}
}

// TestCancelBeyondHorizon exercises the RunUntil path that reclaims a
// lazily-canceled queue head sitting past the horizon.
func TestCancelBeyondHorizon(t *testing.T) {
	s := New()
	fired := false
	e := s.At(100, "far", func() { fired = true })
	s.Cancel(e)
	s.RunUntil(50)
	if fired {
		t.Fatal("canceled event fired")
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d", s.Pending())
	}
}
