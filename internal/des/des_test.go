package des

import (
	"reflect"
	"testing"

	"repro/internal/simtime"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(30, "c", func() { order = append(order, 3) })
	s.At(10, "a", func() { order = append(order, 1) })
	s.At(20, "b", func() { order = append(order, 2) })
	s.Drain()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v, want 30", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, "e", func() { order = append(order, i) })
	}
	s.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events fired out of scheduling order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New()
	var at simtime.Time
	s.At(50, "outer", func() {
		s.After(25, "inner", func() { at = s.Now() })
	})
	s.Drain()
	if at != 75 {
		t.Fatalf("inner fired at %v, want 75", at)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(10, "x", func() { fired = true })
	s.Cancel(e)
	s.Drain()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("event not marked canceled")
	}
	// Double cancel and nil cancel are no-ops.
	s.Cancel(e)
	s.Cancel(nil)
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	s := New()
	fired := false
	var victim *Event
	s.At(5, "canceler", func() { s.Cancel(victim) })
	victim = s.At(10, "victim", func() { fired = true })
	s.Drain()
	if fired {
		t.Fatal("victim fired despite cancellation")
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	s := New()
	var fired []simtime.Time
	for _, tt := range []simtime.Time{10, 20, 30, 40} {
		tt := tt
		s.At(tt, "e", func() { fired = append(fired, tt) })
	}
	s.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v before horizon 25", fired)
	}
	if s.Now() != 25 {
		t.Fatalf("clock = %v, want horizon 25", s.Now())
	}
	s.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("remaining events did not fire: %v", fired)
	}
}

func TestRunUntilAdvancesEmptyClock(t *testing.T) {
	s := New()
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("clock = %v, want 1000", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(100, "x", func() {})
	s.Drain()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(50, "past", func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, "neg", func() {})
}

func TestSelfRescheduling(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(10, "tick", tick)
		}
	}
	s.After(10, "tick", tick)
	s.Drain()
	if count != 5 {
		t.Fatalf("ticked %d times, want 5", count)
	}
	if s.Now() != 50 {
		t.Fatalf("clock = %v, want 50", s.Now())
	}
}

func TestFiredAndPendingCounters(t *testing.T) {
	s := New()
	s.At(1, "a", func() {})
	s.At(2, "b", func() {})
	e := s.At(3, "c", func() {})
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", s.Pending())
	}
	s.Cancel(e)
	if s.Pending() != 2 {
		t.Fatalf("Pending after cancel = %d, want 2", s.Pending())
	}
	s.Drain()
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending after drain = %d", s.Pending())
	}
}

func TestStep(t *testing.T) {
	s := New()
	n := 0
	s.At(1, "a", func() { n++ })
	s.At(2, "b", func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatal("first step")
	}
	if !s.Step() || n != 2 {
		t.Fatal("second step")
	}
	if s.Step() {
		t.Fatal("step on empty queue returned true")
	}
}

func TestEventAccessors(t *testing.T) {
	s := New()
	e := s.At(42, "label", func() {})
	if e.Time() != 42 {
		t.Errorf("Time() = %v", e.Time())
	}
	if e.Label() != "label" {
		t.Errorf("Label() = %q", e.Label())
	}
}

func TestManyEventsStressOrdering(t *testing.T) {
	s := New()
	// Interleave scheduling from within events; verify global
	// non-decreasing firing order.
	var last simtime.Time
	violations := 0
	var spawn func(depth int)
	count := 0
	spawn = func(depth int) {
		if s.Now() < last {
			violations++
		}
		last = s.Now()
		count++
		if depth < 3 {
			for i := 1; i <= 3; i++ {
				d := simtime.Duration(i * 7)
				s.After(d, "spawn", func() { spawn(depth + 1) })
			}
		}
	}
	s.At(0, "root", func() { spawn(0) })
	s.Drain()
	if violations > 0 {
		t.Fatalf("%d time-order violations", violations)
	}
	if count != 1+3+9+27 {
		t.Fatalf("fired %d events, want 40", count)
	}
}

// containsPointer reports whether a value of type t holds a pointer the
// garbage collector must trace (and guard with write barriers).
func containsPointer(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && containsPointer(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if containsPointer(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestHeapEntryIsPointerFree guards the index-heap layout: sifting,
// popping and recycling move heapEntry values, and those moves are only
// free of GC write barriers while heapEntry holds no pointer.
func TestHeapEntryIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(heapEntry{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); containsPointer(f.Type) {
			t.Errorf("heapEntry.%s (%s) is or contains a pointer; name events by slab index instead", f.Name, f.Type)
		}
	}
	if containsPointer(reflect.TypeOf(eventHeap{}.a).Elem()) {
		t.Error("the event heap's element type contains a pointer")
	}
	if containsPointer(reflect.TypeOf(Simulator{}.free).Elem()) {
		t.Error("the freelist's element type contains a pointer")
	}
	// The guard itself must see through nesting.
	type nested struct{ a [2]struct{ p *Event } }
	if !containsPointer(reflect.TypeOf(nested{})) {
		t.Fatal("containsPointer misses a pointer nested in an array of structs")
	}
}
