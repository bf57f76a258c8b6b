package curves

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/simtime"
)

// referenceDeltaFromTrace is the original batch double loop, kept as the
// test oracle for the extendable TraceWindow.
func referenceDeltaFromTrace(ts []simtime.Time, l int) (*Delta, error) {
	if l <= 0 {
		return nil, errors.New("curves: l must be positive")
	}
	if len(ts) < 2 {
		return nil, errors.New("curves: trace needs at least two events")
	}
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] }) {
		return nil, errors.New("curves: trace timestamps must be non-decreasing")
	}
	dist := make([]simtime.Duration, l)
	for i := range dist {
		dist[i] = simtime.Infinity
	}
	for i := range ts {
		for k := 1; k <= l && i+k < len(ts); k++ {
			d := ts[i+k].Sub(ts[i])
			if d < dist[k-1] {
				dist[k-1] = d
			}
		}
	}
	for i := range dist {
		if dist[i] == simtime.Infinity {
			dist[i] = dist[i-1]
		}
	}
	for i := 1; i < len(dist); i++ {
		if dist[i] < dist[i-1] {
			dist[i] = dist[i-1]
		}
	}
	return &Delta{Dist: dist}, nil
}

// sameDerivation fails unless got and want agree on Dist and error text.
func sameDerivation(t *testing.T, label string, got, want *Delta, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got.Dist, want.Dist) {
		t.Fatalf("%s: Dist %v, reference %v", label, got.Dist, want.Dist)
	}
}

// randomTrace draws n non-decreasing timestamps from start; roughly one
// gap in four is zero, so equal timestamps are common.
func randomTrace(rnd *rand.Rand, start simtime.Time, n int) []simtime.Time {
	ts := make([]simtime.Time, n)
	cur := start
	for i := range ts {
		if rnd.Intn(4) != 0 {
			cur += simtime.Time(rnd.Intn(1000))
		}
		ts[i] = cur
	}
	return ts
}

// TestTraceWindowExtendMatchesBatch is the extension's equivalence
// property: a window over a prefix, cloned and extended by a suffix,
// finishes to exactly the reference double loop over the concatenation
// — same Dist, same error — for splits around l, equal timestamps,
// unsorted suffixes, suffixes that start before the prefix ends, and
// traces below two events. The prefix window must survive its clones'
// extensions unchanged.
func TestTraceWindowExtendMatchesBatch(t *testing.T) {
	rnd := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3000; trial++ {
		l := 1 + rnd.Intn(20)
		n := rnd.Intn(3 * (l + 2))
		full := randomTrace(rnd, simtime.Time(rnd.Intn(5000)), n)
		splits := []int{0, 1, l - 1, l, l + 1, rnd.Intn(n + 1)}
		for _, split := range splits {
			if split > n {
				continue
			}
			ts := append([]simtime.Time(nil), full...)
			switch variant := rnd.Intn(4); {
			case variant == 1 && n-split >= 2:
				// Unsorted suffix.
				i := split + rnd.Intn(n-split-1)
				ts[i], ts[i+1] = ts[i+1]+1, ts[i]
			case variant == 2 && split > 0 && split < n:
				// The suffix starts before the prefix ends.
				ts[split] = ts[split-1] - simtime.Time(1+rnd.Intn(50))
			}
			want, wantErr := referenceDeltaFromTrace(ts, l)

			prefix, err := NewTraceWindow(l)
			if err != nil {
				t.Fatal(err)
			}
			prefix.Extend(ts[:split])
			before, beforeErr := prefix.Delta()
			w := prefix.Clone()
			w.Extend(ts[split:])
			got, gotErr := w.Delta()
			label := fmt.Sprintf("l=%d n=%d split=%d", l, n, split)
			sameDerivation(t, label, got, want, gotErr, wantErr)

			// Extending in three chunks is the same trace again.
			third := split + (n-split)/2
			w3 := prefix.Clone()
			w3.Extend(ts[split:third])
			w3.Extend(ts[third:])
			got3, gotErr3 := w3.Delta()
			sameDerivation(t, label+" (three chunks)", got3, want, gotErr3, wantErr)

			after, afterErr := prefix.Delta()
			sameDerivation(t, label+" (prefix after clone extension)", after, before, afterErr, beforeErr)

			batch, batchErr := DeltaFromTrace(ts, l)
			sameDerivation(t, label+" (DeltaFromTrace)", batch, want, batchErr, wantErr)
		}
	}
	if _, err := NewTraceWindow(0); err == nil {
		t.Fatal("NewTraceWindow accepted l = 0")
	}
}
