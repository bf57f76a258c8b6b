// Package des implements a minimal discrete-event simulation kernel.
//
// The hypervisor reproduction (internal/hv) is driven entirely by this
// kernel: hardware IRQ arrivals, TDMA slot boundaries, bottom-handler
// budget expiry and execution completions are all events on one timeline.
// Events at the same timestamp fire in scheduling order (FIFO), which
// makes every simulation fully deterministic.
//
// The kernel is on the hot path of every experiment (a figure run fires
// millions of events), so it avoids the generic container/heap in favour
// of a concrete 4-ary min-heap with the ordering key stored inline,
// recycles fired and canceled Event structs through a per-simulator
// freelist, and cancels lazily (mark-and-skip at pop) instead of
// restructuring the heap. Consequence of the freelist: an *Event handle
// is only valid until the event fires or is skipped after cancellation —
// holders must not retain it past that point (see Cancel).
//
// The heap and the freelist hold uint32 indices into a per-simulator
// slab of *Event, never the pointers themselves. Sifting, popping and
// recycling therefore move pointer-free words, which the Go collector
// neither scans nor guards with write barriers; a figure run that
// overlaps several GC cycles would otherwise pay a barrier on every
// heap move (DESIGN.md §11).
package des

import (
	"fmt"
	"math"

	"repro/internal/simtime"
)

// Event is a scheduled callback. Its fields are managed by the Simulator;
// holders may only Cancel it or query its Time. Once the event has fired
// (or a canceled event has been skipped at pop), the Simulator may
// recycle the struct for a future At/After call, so handles must not be
// retained past the callback's execution.
type Event struct {
	when     simtime.Time
	seq      uint64
	fn       func()
	label    string
	idx      uint32 // slot in the owning simulator's slab
	queued   bool
	canceled bool
}

// Time returns the timestamp the event is (or was) scheduled for.
func (e *Event) Time() simtime.Time { return e.when }

// Canceled reports whether the event has been canceled.
func (e *Event) Canceled() bool { return e.canceled }

// Label returns the debug label given at scheduling time.
func (e *Event) Label() string { return e.label }

// Simulator owns the virtual clock and the pending event queue.
// The zero value is a simulator at time 0 with no events.
type Simulator struct {
	now     simtime.Time
	queue   eventHeap
	seq     uint64
	fired   uint64
	live    int      // queued events that are not canceled
	slab    []*Event // every Event struct this simulator allocated, by idx
	free    []uint32 // slab indices of recyclable events
	running bool
	savers  []StateSaver // model state captured by Snapshot (snapshot.go)
}

// New returns a simulator with its clock at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current simulated time.
func (s *Simulator) Now() simtime.Time { return s.now }

// Fired returns the number of events executed so far; useful for
// progress accounting and as a watchdog in tests.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently queued and not
// canceled. Canceled events may still occupy heap slots until they are
// skipped at pop (lazy cancellation), but are never counted here.
func (s *Simulator) Pending() int { return s.live }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: the hypervisor model never needs it and allowing it would mask
// bookkeeping bugs.
func (s *Simulator) At(t simtime.Time, label string, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling %q at %v before now %v", label, t, s.now))
	}
	e := s.acquire()
	e.when = t
	e.seq = s.seq
	e.fn = fn
	e.label = label
	e.queued = true
	s.seq++
	s.live++
	s.queue.push(heapEntry{when: e.when, seq: e.seq, idx: e.idx})
	return e
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d simtime.Duration, label string, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("des: scheduling %q with negative delay %v", label, d))
	}
	return s.At(s.now.Add(d), label, fn)
}

// Cancel marks e canceled; the heap slot is reclaimed lazily when the
// event surfaces at a pop (mark-and-skip), avoiding the O(log n)
// restructuring of an eager removal. Canceling nil, an already-canceled
// or an already-fired event is a no-op — but note that after an event
// has fired its struct may be recycled for a new event, so a retained
// stale handle must never reach Cancel.
func (s *Simulator) Cancel(e *Event) {
	if e == nil || e.canceled || !e.queued {
		return
	}
	e.canceled = true
	s.live--
}

// acquire takes an Event struct from the freelist, or allocates one and
// gives it the next slab slot. Fields are reset here (on acquire, not on
// release) so that a handle to a fired or canceled event keeps
// answering Time/Canceled/Label until the struct is actually reused.
func (s *Simulator) acquire() *Event {
	if n := len(s.free); n > 0 {
		e := s.slab[s.free[n-1]]
		s.free = s.free[:n-1]
		// Every other field is overwritten by At; only the cancel mark
		// must be cleared explicitly.
		e.canceled = false
		return e
	}
	if len(s.slab) == math.MaxUint32 {
		panic("des: more than 2^32-1 events allocated")
	}
	e := &Event{idx: uint32(len(s.slab))}
	s.slab = append(s.slab, e)
	return e
}

// release returns a popped event to the freelist. The closure reference
// is dropped so the callback can be collected.
func (s *Simulator) release(e *Event) {
	e.fn = nil
	e.queued = false
	s.free = append(s.free, e.idx)
}

// Step fires the earliest pending event and advances the clock to it.
// It returns false when the queue is empty.
func (s *Simulator) Step() bool {
	for s.queue.len() > 0 {
		ent := s.queue.pop()
		e := s.slab[ent.idx]
		if e.canceled {
			s.release(e)
			continue
		}
		e.queued = false
		s.now = ent.when
		s.fired++
		s.live--
		// Release before firing so a self-rescheduling callback reuses
		// this very struct; the handle is dead once the event fires.
		fn := e.fn
		s.release(e)
		fn()
		return true
	}
	return false
}

// RunUntil fires events in order until the next event would be after
// horizon or the queue drains. The clock ends at min(horizon, last event).
func (s *Simulator) RunUntil(horizon simtime.Time) {
	if s.running {
		panic("des: re-entrant RunUntil")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.queue.len() > 0 {
		top := s.queue.a[0]
		e := s.slab[top.idx]
		if e.canceled {
			// Reclaim lazily-canceled heads even past the horizon;
			// they cost nothing to fire-skip now.
			s.queue.pop()
			s.release(e)
			continue
		}
		if top.when > horizon {
			break
		}
		ent := s.queue.pop()
		e.queued = false
		s.now = ent.when
		s.fired++
		s.live--
		fn := e.fn
		s.release(e)
		fn()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Drain fires every remaining event. Intended for tests and short
// self-terminating scenarios; a scenario with self-rescheduling events
// will not terminate under Drain.
func (s *Simulator) Drain() {
	for s.Step() {
	}
}

// Reset returns the simulator to its zero state in place: clock at 0,
// no events, no registered state savers. Queued events are recycled
// through the freelist and the heap keeps its capacity, so a reset
// simulator re-runs a same-shaped scenario without allocating — the
// arena contract of DESIGN.md §11.
func (s *Simulator) Reset() {
	if s.running {
		panic("des: Reset during RunUntil")
	}
	s.recycleQueue()
	s.now = 0
	s.seq = 0
	s.fired = 0
	s.savers = s.savers[:0]
}

// recycleQueue releases every queued event (canceled or not) back to the
// freelist and empties the heap, keeping its capacity.
func (s *Simulator) recycleQueue() {
	for _, ent := range s.queue.a {
		s.release(s.slab[ent.idx])
	}
	s.queue.a = s.queue.a[:0]
	s.live = 0
}

// heapEntry is one queued event with its ordering key stored inline, so
// sift operations compare without chasing the Event pointer. It names
// the event by slab index and must stay pointer-free (a test guards
// this): moving it then needs no GC write barrier.
type heapEntry struct {
	when simtime.Time
	seq  uint64
	idx  uint32
}

// before is the strict heap order: earliest time first, FIFO within a
// timestamp.
func (a heapEntry) before(b heapEntry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventHeap is a 4-ary min-heap on (when, seq). A wider node halves the
// tree depth versus a binary heap, trading a few extra comparisons per
// level for fewer cache-missing levels — the classic d-ary trade that
// favours pop-heavy workloads like a DES event queue.
type eventHeap struct {
	a []heapEntry
}

func (h *eventHeap) len() int { return len(h.a) }

// push inserts e, sifting up with a hole instead of pairwise swaps.
func (h *eventHeap) push(e heapEntry) {
	h.a = append(h.a, heapEntry{})
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(h.a[p]) {
			break
		}
		h.a[i] = h.a[p]
		i = p
	}
	h.a[i] = e
}

// pop removes and returns the minimum entry.
func (h *eventHeap) pop() heapEntry {
	a := h.a
	top := a[0]
	n := len(a) - 1
	last := a[n]
	a = a[:n]
	h.a = a
	if n > 0 {
		// Sift last down from the root with a hole.
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if a[j].before(a[m]) {
					m = j
				}
			}
			if !a[m].before(last) {
				break
			}
			a[i] = a[m]
			i = m
		}
		a[i] = last
	}
	return top
}
