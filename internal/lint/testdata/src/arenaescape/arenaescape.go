// Package arenaescape is the dataflow fixture for arenaretain's escape
// rule: values aliasing arena-owned memory (core.Report results,
// (*hv.System).Log records, anything derived from them through helper
// returns, selection or composite-literal laundering) must not be stored
// past the arena's next Reset. The call-site rule fires on every seam.
package arenaescape

import (
	"repro/internal/core"
	"repro/internal/hv"
	"repro/internal/tracerec"
)

type holder struct {
	res  *core.Result
	recs []tracerec.Record
}

var latest *core.Result

// alias returns arena-owned memory; callers inherit the taint through
// the Arena summary.
func alias(sys *hv.System) *core.Result {
	return core.Report(sys) // want `use core\.ReportOwned`
}

// fieldStore is the acceptance case the call-site rule provably
// misses: no core.Report or Log call appears here at all — the alias
// arrives through a helper return and a local variable before landing
// in a struct field.
func fieldStore(h *holder, sys *hv.System) {
	r := alias(sys)
	h.res = r // want `stored into struct field res`
}

// globalStore: package-level variables outlive every arena.
func globalStore(sys *hv.System) {
	latest = alias(sys) // want `package-level variable latest`
}

// mapStore and chanStore: containers with indefinite lifetime.
func mapStore(sys *hv.System, idx map[string][]tracerec.Record) {
	idx["last"] = sys.Log().Records // want `map entry` `arena-owned records`
}

func chanStore(sys *hv.System, out chan []tracerec.Record) {
	out <- sys.Log().Records // want `a channel` `arena-owned records`
}

// laundered: the alias hides inside a composite literal in a local
// struct before the field store — the laundering path the dataflow
// pass exists to follow.
func laundered(h *holder, sys *hv.System) {
	wrapped := holder{recs: sys.Log().Records} // want `arena-owned records`
	h.recs = wrapped.recs                      // want `stored into struct field recs`
}

// owned: the deep copy is the sanctioned path out of the arena.
func owned(h *holder, sys *hv.System) {
	h.res = core.ReportOwned(sys)
}

// localOnly: an alias that never escapes the call is borrowing as
// designed (the call-site rule still asks for a reasoned allow).
func localOnly(sys *hv.System) int {
	recs := sys.Log().Records // want `arena-owned records`
	return len(recs)
}
