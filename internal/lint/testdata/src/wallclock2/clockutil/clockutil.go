// Package clockutil stands in for an out-of-scope helper package: the
// wall-clock read lives here, two hops from the fixture entry package,
// where wallclock's direct rule never connects it to the callers it
// taints.
package clockutil

import "time"

// Stamp hands host time to whoever calls it.
func Stamp() int64 { return now() }

func now() int64 { return time.Now().UnixNano() }
