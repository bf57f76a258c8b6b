// Package wallclock2 is the helper-chain fixture for wallclock's
// transitive rule. No direct time call appears anywhere in this
// package — the clock read sits two helpers away in the clockutil
// subpackage, which stands in for an out-of-scope helper package. The
// direct rule scans this package and provably finds nothing (a test
// pins that blind spot); the transitive rule follows the call graph
// and flags every hop in reporting scope.
package wallclock2

import "repro/internal/lint/testdata/src/wallclock2/clockutil"

// simulate is deterministic-scope code whose result silently absorbs
// host time through the helper chain.
func simulate() int64 {
	return warmStamp() // want `transitively reads the wall clock`
}

// warmStamp is the first hop: still no direct clock call in sight.
func warmStamp() int64 {
	return clockutil.Stamp() // want `transitively reads the wall clock`
}

// pure never reaches the clock; a clean helper chain stays clean.
func pure() int64 { return fold(41) }

func fold(x int64) int64 { return x + 1 }

// allowedStamp: an allow cuts both the finding and the propagation —
// callers of allowedStamp stay clean instead of inheriting the taint
// one level up.
func allowedStamp() int64 {
	//reprolint:allow wallclock fixture: operator-facing timestamp, not part of result bytes
	return clockutil.Stamp()
}

func caller() int64 { return allowedStamp() }
