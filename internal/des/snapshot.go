// Snapshot/restore of a simulator: the fork primitive for warm-prefix
// campaigns. A snapshot captures the clock, the sequence counter and
// every queued (non-canceled) event with its original scheduling
// sequence number; restoring re-acquires the events from the freelist
// with those exact sequence numbers, so the strict (when, seq) total
// order — and therefore every same-timestamp FIFO tie — replays
// identically. Model state (hypervisor, guest OS, monitors, queues)
// rides along through registered StateSavers.
//
// Event callbacks are captured as function values. This is sound only
// because restore targets the *same* system the snapshot was taken
// from: the long-lived callbacks (arrival chains, slot boundaries,
// activity completions) close over objects that survive across the
// snapshot/restore boundary. Restoring into a different system would
// resurrect closures over foreign state and is not supported.
package des

import (
	"fmt"
	"sort"

	"repro/internal/simtime"
)

// StateSaver captures and restores one model's mutable state alongside
// the event queue. Savers are registered with RegisterState and invoked
// in registration order.
type StateSaver interface {
	// SaveState returns a deep copy of the model's mutable state. The
	// snapshot is passed so retained *Event handles can be translated
	// into stable tokens (Snapshot.Token) that survive the freelist.
	SaveState(sn *Snapshot) any
	// RestoreState reinstates a state previously returned by SaveState,
	// recovering retained event handles via Restorer.Event.
	RestoreState(rs *Restorer, state any)
}

// RegisterState adds sv to the set of model states captured by Snapshot
// and reinstated by Restore. Reset drops all registered savers.
func (s *Simulator) RegisterState(sv StateSaver) {
	s.savers = append(s.savers, sv)
}

// entSnap is one queued, non-canceled event in a snapshot.
type entSnap struct {
	when  simtime.Time
	seq   uint64
	label string
	fn    func()
}

// Snapshot is a resumable copy of a simulator's clock and event queue,
// plus the states of all registered savers. It stays valid across any
// number of Restore calls (fork many tails from one warm prefix).
type Snapshot struct {
	now     simtime.Time
	seq     uint64
	fired   uint64
	entries []entSnap
	tokens  map[*Event]uint64
	states  []any
}

// Now returns the simulated time the snapshot was taken at.
func (sn *Snapshot) Now() simtime.Time { return sn.now }

// Pending returns the number of queued events the snapshot holds.
func (sn *Snapshot) Pending() int { return len(sn.entries) }

// Token translates a live *Event handle into a stable token that can be
// stored in a saver's state and resolved after Restore. The second
// result is false when e is not a queued, non-canceled event of the
// snapshot — savers must treat that as "no event retained".
func (sn *Snapshot) Token(e *Event) (uint64, bool) {
	tok, ok := sn.tokens[e]
	return tok, ok
}

// Restorer resolves tokens back to the events re-created by Restore.
type Restorer struct {
	events map[uint64]*Event
}

// Event returns the re-created event for a token obtained from
// Snapshot.Token. Unknown tokens panic: a saver that stored a token is
// holding state the snapshot does not cover, which is a bug.
func (rs *Restorer) Event(token uint64) *Event {
	e, ok := rs.events[token]
	if !ok {
		panic(fmt.Sprintf("des: restore of unknown event token %d", token))
	}
	return e
}

// Snapshot captures the simulator for later Restore. Canceled events
// are dropped (they would be skipped at pop anyway); live entries are
// stored sorted by their (when, seq) key so restore order — and hence
// the freelist assignment of Event structs — is deterministic.
func (s *Simulator) Snapshot() *Snapshot {
	if s.running {
		panic("des: Snapshot during RunUntil")
	}
	sn := &Snapshot{
		now:     s.now,
		seq:     s.seq,
		fired:   s.fired,
		entries: make([]entSnap, 0, s.live),
		tokens:  make(map[*Event]uint64, s.live),
	}
	for _, ent := range s.queue.a {
		e := s.slab[ent.idx]
		if e.canceled {
			continue
		}
		sn.entries = append(sn.entries, entSnap{when: ent.when, seq: ent.seq, label: e.label, fn: e.fn})
		sn.tokens[e] = ent.seq
	}
	sort.Slice(sn.entries, func(i, j int) bool {
		if sn.entries[i].when != sn.entries[j].when {
			return sn.entries[i].when < sn.entries[j].when
		}
		return sn.entries[i].seq < sn.entries[j].seq
	})
	for _, sv := range s.savers {
		sn.states = append(sn.states, sv.SaveState(sn))
	}
	return sn
}

// Restore rewinds the simulator to the snapshot: current queued events
// are recycled, the snapshot's events are re-acquired with their
// original sequence numbers (so pop order replays exactly), and every
// registered saver reinstates its state. The saver set must be the one
// the snapshot was taken with.
func (s *Simulator) Restore(sn *Snapshot) {
	if s.running {
		panic("des: Restore during RunUntil")
	}
	if len(s.savers) != len(sn.states) {
		panic(fmt.Sprintf("des: Restore with %d savers but snapshot has %d states", len(s.savers), len(sn.states)))
	}
	s.recycleQueue()
	s.now = sn.now
	s.seq = sn.seq
	s.fired = sn.fired
	rs := &Restorer{events: make(map[uint64]*Event, len(sn.entries))}
	for _, es := range sn.entries {
		e := s.acquire()
		e.when = es.when
		e.seq = es.seq
		e.fn = es.fn
		e.label = es.label
		e.queued = true
		s.live++
		s.queue.push(heapEntry{when: es.when, seq: es.seq, idx: e.idx})
		rs.events[es.seq] = e
	}
	for i, sv := range s.savers {
		sv.RestoreState(rs, sn.states[i])
	}
}
