package main

import (
	"sync"
	"time"
)

// schedule returns the due offsets of an open loop sending rate requests
// per second for d: request i is due at i/rate, whatever happened to the
// requests before it.
func schedule(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// sample is one open-loop request as the generator saw it.
type sample struct {
	Lag time.Duration // send time minus due time: how late the generator ran
	Lat time.Duration // completion minus due time
	Err error
}

// openLoop sends request i at start+due[i] through conns senders and
// returns one sample per request. Latency is timed from the due time, so
// a stall also charges the wait it imposes on the requests queued behind
// it. do is never retried: a refused request is a failed sample.
func openLoop(start time.Time, due []time.Duration, conns int, do func(i int) error) []sample {
	out := make([]sample, len(due))
	// Sized to the number of sends so the pacer never blocks on a slow
	// sender: lateness shows up as lag, not as a skipped schedule.
	work := make(chan int, len(due))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				dueAt := start.Add(due[i])
				sent := time.Now()
				err := do(i)
				out[i] = sample{Lag: sent.Sub(dueAt), Lat: time.Since(dueAt), Err: err}
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(start.Add(d)); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}
