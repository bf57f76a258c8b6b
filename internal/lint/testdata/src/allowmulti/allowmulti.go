// Package allowmulti exercises //reprolint:allow edge cases across two
// analyzers that can fire on the same line: wallclock (time.Now) and
// arenaretain (the (*hv.System).Log seam). The driver test pins the
// exact findings: one allow per analyzer fully silences a paired line,
// a lone allow leaves the other analyzer's finding standing, a wrong
// analyzer name suppresses nothing and is itself reported stale, and
// an allow two lines above its finding does not reach.
package allowmulti

import (
	"time"

	"repro/internal/hv"
)

// pairSuppressed: both analyzers fire on one line; each needs its own
// directive, and both directives count as used.
func pairSuppressed(sys *hv.System) int64 {
	//reprolint:allow wallclock fixture: operator-facing stamp, paired with the inline arenaretain allow
	return time.Now().UnixNano() + int64(sys.Log().Len()) //reprolint:allow arenaretain fixture: same line, other analyzer
}

// pairOneMissing: only the arena read is allowed; the time.Now still
// surfaces as a wallclock finding.
func pairOneMissing(sys *hv.System) int64 {
	return time.Now().UnixNano() + int64(sys.Log().Len()) //reprolint:allow arenaretain fixture: clock read left for wallclock
}

// wrongName: the directive names an analyzer that has no finding here,
// so the wallclock finding stands and the directive is reported stale.
func wrongName() int64 {
	return time.Now().UnixNano() //reprolint:allow detmap fixture: wrong analyzer on purpose
}

// stacked: a directive covers its own line and the next one only; two
// lines of separation is out of range, so the finding stands and the
// directive is stale.
func stacked() int64 {
	//reprolint:allow wallclock fixture: deliberately stranded two lines above the call
	// (an intervening comment pushes the call out of the covered range)
	return time.Now().UnixNano()
}
