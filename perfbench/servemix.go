package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/store"
)

// serve_mix traffic: an open loop at mixRate requests per second. On a
// 2-CPU host both medians start to climb near 480 req/s (with fsync on);
// the rate sits at half that. Every fourth slot is a fresh-cell write,
// every fourth a cold read and the other half hot reads. Reads fetch
// pre-computed cells by content address; writes compute, journal and
// store a new cell.
//
// The daemon runs without fsync: campaign_durable measures the fsync
// path, and here a write's latency would otherwise follow the host
// disk's load more than the code.
const (
	mixRate  = 240
	mixFsync = false
	hotKeys  = 16
	// checkEvery selects the written and cold-read bodies compared
	// against an in-process encoding after the run.
	checkEvery = 8
)

type mixKind int

const (
	hotRead mixKind = iota
	coldRead
	write
)

func mixOf(i int) mixKind {
	switch i % 4 {
	case 1:
		return coldRead
	case 3:
		return write
	default:
		return hotRead
	}
}

// mixCells expands consecutive campaign rounds until n cells exist.
func mixCells(seed uint64, firstRound, n int) ([]campaign.CellSpec, error) {
	var out []campaign.CellSpec
	for r := firstRound; len(out) < n; r++ {
		cells, err := cellSpecs(roundSpec(seed, r))
		if err != nil {
			return nil, err
		}
		out = append(out, cells...)
	}
	return out[:n], nil
}

// stored is a pre-computed cell as the daemon reported it.
type stored struct {
	cell campaign.CellSpec
	key  string
	body []byte
}

// prepopulate has a daemon compute cells over conns connections and
// returns what it stored.
func prepopulate(hc *http.Client, url string, cells []campaign.CellSpec, conns int) ([]stored, error) {
	out := make([]stored, len(cells))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(cells); i += conns {
				a, err := postJob(hc, url, cellJob(cells[i]))
				if err != nil {
					errs[c] = err
					return
				}
				out[i] = stored{cell: cells[i], key: a.key, body: a.body}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pre-populating: %w", err)
		}
	}
	return out, nil
}

func runServeMix(b *bench) error {
	hc := newHTTPClient(b.nproc)
	defer hc.CloseIdleConnections()
	dir := filepath.Join(b.dir, "data")

	// Enough cold keys for every cold-read slot of the run.
	slots := int(mixRate * b.seconds.Seconds())
	cells, err := mixCells(b.seed, 0, hotKeys+slots/4+1)
	if err != nil {
		return err
	}
	d0, err := startDaemon(hc, b.durableOptions(dir, mixFsync), nil)
	if err != nil {
		return err
	}
	pre, err := prepopulate(hc, d0.url, cells, b.nproc)
	// Every stop keeps the journal uncompacted, so each restart below
	// replays the pre-population's records; the long job each stop
	// leaves cancelled needs a fresh seed.
	heavy := b.seed << 16
	stop := func(d *daemon) error {
		heavy++
		return d.stopKeepingJournal(hc, heavy)
	}
	if err := errors.Join(err, stop(d0)); err != nil {
		return err
	}
	// The durable tier's own share of a restart: indexing the store.
	storeStart := time.Now()
	if _, err := store.Open(filepath.Join(dir, "store"), store.Options{Registry: metrics.NewRegistry()}); err != nil {
		return err
	}
	storeOpen := time.Since(storeStart).Seconds()

	// Set-up is the restart on the pre-populated data dir: store index,
	// journal replay, readiness.
	d, err := timeSetup(b, 7, func() (*daemon, error) { return startDaemon(hc, b.durableOptions(dir, mixFsync), nil) }, stop)
	if err != nil {
		return err
	}
	defer func() {
		if err := d.stop(); err != nil {
			b.note("stopping daemon: %v", err)
		}
	}()
	hot, cold := pre[:hotKeys], pre[hotKeys:]
	for _, s := range hot { // warm the memory tier
		a, err := getResult(hc, d.url, s.key)
		if b.op(err) {
			b.check(a.cache == "store", "warming %s: X-Cache %q, want store", s.key, a.cache)
		}
	}
	writes, err := mixCells(b.seed, 1000, slots/4+1)
	if err != nil {
		return err
	}

	mp := &mixPass{b: b, hc: hc, url: d.url, hot: hot, cold: cold, writes: writes}
	if !b.trace {
		st := mp.run(b.seconds, 0, nil)
		b.windowDone()
		b.e2e["read_p50_ms"] = percentile(st.readMs, 50)
		b.e2e["write_p50_ms"] = percentile(st.writeMs, 50)
		b.e2e["cells_per_s"] = float64(st.completed) / st.elapsed.Seconds()
		b.e2e["sim_irqs_per_s"] = float64(len(st.writeMs)*2*suffixEvents) / st.elapsed.Seconds()
	} else {
		cost := startCost()
		st := mp.run(b.seconds/2, 0, nil)
		cost.stop(b, float64(st.completed))
		before, err := scrape(hc, d.url)
		if err != nil {
			return err
		}
		depth := sampleGauge(d.reg.Gauge("repro_server_queue_depth"))
		tr := newTracer()
		traced := mp.run(b.seconds/2, len(st.samples), tr)
		b.layer["serve.queue_depth_max"] = depth()
		after, err := scrape(hc, d.url)
		if err != nil {
			return err
		}
		b.serveLayers(after.delta(before), after)
		b.layer["serve.journal_bytes"] = fileSize(filepath.Join(dir, "journal.wal"))
		b.layer["serve.replay_s"] = b.e2e["setup_s"] - storeOpen
		b.layer["trace.overhead_pct"] = overheadPct(st.readMs, traced.readMs)
		b.layer["gen.attempted"] = float64(len(st.samples))
		b.layer["gen.completed"] = float64(st.completed)
		var lag []float64
		for _, s := range st.samples {
			lag = append(lag, float64(s.Lag)/1e6)
		}
		b.layer["gen.lag_ms"] = percentile(lag, 99)
		b.layer["serve.read_samples"] = float64(len(st.readMs))
		b.layer["serve.read_p99_ms"] = percentile(st.readMs, 99)
		b.layer["serve.write_samples"] = float64(len(st.writeMs))
		b.layer["serve.write_p99_ms"] = percentile(st.writeMs, 99)
		b.finishTrace(tr)
		// Shadow-replay the traced pass's first writes: what a write's
		// layer calls cost in-process, against what it cost served.
		from := len(st.samples) / 4
		shadow, err := b.shadowStore(mixFsync)
		if err != nil {
			return err
		}
		per, err := b.shadowReplay(writes[from:min(from+64, len(writes))], nil, shadow)
		if err != nil {
			return err
		}
		b.layer["serve.residual_ms_per_cell"] = median(traced.writeMs) - median(per)
	}

	// Sampled bodies must equal in-process encodings.
	runner := campaign.NewRunner()
	verify := func(cs campaign.CellSpec, body []byte) {
		res, err := runner.Run(cs)
		if !b.op(err) {
			return
		}
		want, err := report.EncodeCell(res)
		b.check(err == nil && bytes.Equal(want, body), "cell %s seed %d: served bytes differ from the in-process encoding", cs.Fault, cs.Seed)
	}
	for i, s := range pre {
		if i%checkEvery == 0 {
			verify(s.cell, s.body)
		}
	}
	for i, body := range mp.written {
		if i%checkEvery == 0 && body != nil {
			verify(writes[i], body)
		}
	}
	return nil
}

// mixPass runs open-loop passes over one daemon; consecutive passes
// continue the slot sequence, so no cold key is read twice and no write
// repeats.
type mixPass struct {
	b      *bench
	hc     *http.Client
	url    string
	hot    []stored
	cold   []stored
	writes []campaign.CellSpec

	mu      sync.Mutex
	written map[int][]byte // write index → served body
}

type mixStats struct {
	samples   []sample
	readMs    []float64
	writeMs   []float64
	completed int
	elapsed   time.Duration
}

func (mp *mixPass) run(d time.Duration, first int, tr *tracer) *mixStats {
	due := schedule(mixRate, d)
	start := time.Now()
	samples := openLoop(start, due, mp.b.nproc, func(j int) error { return mp.request(first+j, tr) })
	st := &mixStats{samples: samples, elapsed: time.Since(start)}
	for j, s := range samples {
		if !mp.b.op(s.Err) {
			continue
		}
		st.completed++
		ms := float64(s.Lat) / 1e6
		if mixOf(first+j) == write {
			st.writeMs = append(st.writeMs, ms)
		} else {
			st.readMs = append(st.readMs, ms)
		}
	}
	return st
}

// request sends slot i and checks its answer: a hot read must come from
// the memory tier, a cold read from the durable tier, both with the
// pre-computed bytes; a write must be computed (a miss).
func (mp *mixPass) request(i int, tr *tracer) error {
	n := i / 4 // slot index within its kind
	switch mixOf(i) {
	case write:
		span := tr.begin("serve.write", 0, int64(i))
		a, err := postJob(mp.hc, mp.url, cellJob(mp.writes[n]))
		tr.end(span)
		if err != nil {
			return err
		}
		if a.cache != "miss" {
			return fmt.Errorf("write %d answered with X-Cache %q, want miss", n, a.cache)
		}
		mp.mu.Lock()
		if mp.written == nil {
			mp.written = map[int][]byte{}
		}
		mp.written[n] = a.body
		mp.mu.Unlock()
		return nil
	case coldRead:
		return mp.read(mp.cold[n], "store", "serve.cold_read", i, tr)
	default:
		return mp.read(mp.hot[(i/2)%len(mp.hot)], "hit", "serve.hot_read", i, tr)
	}
}

func (mp *mixPass) read(s stored, tier, name string, i int, tr *tracer) error {
	span := tr.begin(name, 0, int64(i))
	a, err := getResult(mp.hc, mp.url, s.key)
	tr.end(span)
	if err != nil {
		return err
	}
	if a.cache != tier {
		return fmt.Errorf("%s of %s answered with X-Cache %q, want %s", name, s.key, a.cache, tier)
	}
	if !bytes.Equal(a.body, s.body) {
		return fmt.Errorf("%s of %s: body differs from the pre-computed bytes", name, s.key)
	}
	return nil
}
