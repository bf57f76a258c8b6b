package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/store"
)

// Campaign rounds: every round is one fault × intensity × seed campaign
// of 5 faults × 4 intensities × seedsPerRound seeds = 500 warm-forked
// cells sharing one prefix.
const (
	seedsPerRound = 25
	prefixEvents  = 2000
	suffixEvents  = 150
	// readsPerRound cells per campaign_durable round are read back from
	// the durable tier: the first cells of the round, long evicted from
	// the memory tier by the time the round ends.
	readsPerRound = 32
)

// roundSpec is round r of a run's campaign sequence. Rounds never share
// a seed, so every round computes fresh cells.
func roundSpec(seed uint64, r int) campaign.Spec {
	return campaign.Spec{
		Intensities:  campaign.IntensityRange{Min: 0.25, Max: 1.0, Steps: 4},
		Seeds:        campaign.SeedRange{Base: seed<<24 + uint64(r)*seedsPerRound + 1, Count: seedsPerRound},
		PrefixSeed:   2014 + seed,
		PrefixEvents: prefixEvents,
		SuffixEvents: suffixEvents,
	}
}

// cellSpecs expands a round in cell order.
func cellSpecs(sp campaign.Spec) ([]campaign.CellSpec, error) {
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	var out []campaign.CellSpec
	for _, c := range sp.Expand() {
		out = append(out, sp.CellSpec(c))
	}
	return out, nil
}

// cellJob is the job document that names one cell.
func cellJob(cs campaign.CellSpec) serve.Spec {
	return serve.Spec{Kind: "cell", Cell: &cs, Wait: true}
}

// round is one served campaign and what came back.
type round struct {
	spec      campaign.Spec
	aggregate []byte
	dur       time.Duration
}

// roundStats is a pass of campaign rounds.
type roundStats struct {
	rounds  []round
	cells   float64   // cells in all rounds
	perR    float64   // cells in one round (all rounds have the same shape)
	writeMs []float64 // per-round submit → final aggregate
	readMs  []float64
}

func (rs *roundStats) add(r round, cells int) {
	rs.rounds = append(rs.rounds, r)
	rs.cells += float64(cells)
	rs.perR = float64(cells)
	rs.writeMs = append(rs.writeMs, float64(r.dur)/1e6)
}

// verifyRounds checks every served aggregate against an in-process
// campaign.Fold of the same spec, byte for byte.
func (b *bench) verifyRounds(rounds []round) {
	for _, r := range rounds {
		agg, err := campaign.Fold(context.Background(), r.spec, b.nproc)
		if !b.op(err) {
			continue
		}
		want, err := report.EncodeCampaign(agg)
		if !b.op(err) {
			continue
		}
		b.check(bytes.Equal(want, r.aggregate), "campaign seeds %d+: served aggregate (%d bytes) differs from campaign.Fold (%d bytes)",
			r.spec.Seeds.Base, len(r.aggregate), len(want))
	}
}

// durableOptions configures campaign_durable's and serve_mix's daemon:
// a data dir and a worker per CPU.
func (b *bench) durableOptions(dir string, fsync bool) serve.Options {
	return serve.Options{Workers: b.nproc, DataDir: dir, Fsync: fsync, Registry: metrics.NewRegistry()}
}

func runCampaignDurable(b *bench) error {
	hc := newHTTPClient(b.nproc)
	defer hc.CloseIdleConnections()
	n := 0
	d, err := timeSetup(b, 15, func() (*daemon, error) {
		n++
		return startDaemon(hc, b.durableOptions(filepath.Join(b.dir, fmt.Sprint("data", n)), true), nil)
	}, (*daemon).stop)
	if err != nil {
		return err
	}
	defer func() {
		if err := d.stop(); err != nil {
			b.note("stopping daemon: %v", err)
		}
	}()
	cl, err := client.New(client.Options{BaseURL: d.url, HTTP: hc, MaxRetries: -1})
	if err != nil {
		return err
	}

	pass := func(dur time.Duration, first int, tr *tracer) (*roundStats, error) {
		st := &roundStats{}
		start := time.Now()
		for r := first; time.Since(start) < dur; r++ {
			sp := roundSpec(b.seed, r)
			cells, err := cellSpecs(sp)
			if err != nil {
				return nil, err
			}
			rd, err := b.durableRound(cl, sp, tr, int64(r))
			if !b.op(err) {
				continue
			}
			st.add(rd, len(cells))
			b.readBack(hc, d.url, cells[:readsPerRound], st, tr, int64(r))
		}
		return st, nil
	}
	if !b.trace {
		st, err := pass(b.seconds, 0, nil)
		if err != nil {
			return err
		}
		b.windowDone()
		b.campaignE2E(st)
		b.verifyRounds(st.rounds)
		return nil
	}
	cost := startCost()
	st, err := pass(b.seconds/2, 0, nil)
	if err != nil {
		return err
	}
	cost.stop(b, st.cells)
	before, err := scrape(hc, d.url)
	if err != nil {
		return err
	}
	depth := sampleGauge(d.reg.Gauge("repro_server_queue_depth"))
	tr := newTracer()
	// Traced rounds are numbered apart from the untraced ones, so their
	// seeds are fresh too.
	traced, err := pass(b.seconds/2, 1000, tr)
	if err != nil {
		return err
	}
	b.layer["serve.queue_depth_max"] = depth()
	after, err := scrape(hc, d.url)
	if err != nil {
		return err
	}
	b.layer["trace.overhead_pct"] = overheadPct(st.writeMs, traced.writeMs)
	b.serveLayers(after.delta(before), after)
	b.layer["serve.journal_bytes"] = fileSize(filepath.Join(b.dir, fmt.Sprint("data", n), "journal.wal"))
	b.finishTrace(tr)
	if len(traced.rounds) > 0 {
		shadow, err := b.shadowStore(true)
		if err != nil {
			return err
		}
		if err := b.shadowRound(traced.rounds[0], shadow, b.nproc); err != nil {
			return err
		}
	}
	b.verifyRounds(append(st.rounds, traced.rounds...))
	return nil
}

// durableRound submits one campaign, follows its stream to the terminal
// chunk and fetches the final aggregate by its content address.
func (b *bench) durableRound(cl *client.Client, sp campaign.Spec, tr *tracer, req int64) (round, error) {
	ctx := context.Background()
	start := time.Now()
	root := tr.begin("campaign.round", 0, req)
	defer tr.end(root)
	span := tr.begin("serve.submit_campaign", root, req)
	cv, res, err := cl.SubmitCampaign(ctx, sp)
	tr.end(span)
	if err != nil {
		return round{}, err
	}
	if res != nil {
		return round{}, fmt.Errorf("campaign seeds %d+ answered from the store: seeds are not fresh", sp.Seeds.Base)
	}
	span = tr.begin("serve.stream_campaign", root, req)
	err = cl.StreamCampaign(ctx, cv.ID, nil)
	tr.end(span)
	if err != nil {
		return round{}, err
	}
	span = tr.begin("serve.fetch_aggregate", root, req)
	agg, err := cl.ResultByKey(ctx, cv.Key)
	tr.end(span)
	if err != nil {
		return round{}, err
	}
	return round{spec: sp, aggregate: agg, dur: time.Since(start)}, nil
}

// readBack re-requests finished cells; each must come from the durable
// tier (X-Cache: store) with the bytes an in-process run encodes.
func (b *bench) readBack(hc *http.Client, url string, cells []campaign.CellSpec, st *roundStats, tr *tracer, req int64) {
	runner := campaign.NewRunner()
	for _, cs := range cells {
		span := tr.begin("serve.read_cell", 0, req)
		start := time.Now()
		a, err := postJob(hc, url, cellJob(cs))
		lat := time.Since(start)
		tr.end(span)
		if !b.op(err) {
			continue
		}
		st.readMs = append(st.readMs, float64(lat)/1e6)
		b.check(a.cache == "store", "cell %s seed %d read back with X-Cache %q, want store", cs.Fault, cs.Seed, a.cache)
		res, err := runner.Run(cs)
		if err == nil {
			want, eerr := report.EncodeCell(res)
			b.check(eerr == nil && bytes.Equal(want, a.body), "cell %s seed %d: served bytes differ from the in-process encoding", cs.Fault, cs.Seed)
		} else {
			b.check(false, "cell %s seed %d in-process: %v", cs.Fault, cs.Seed, err)
		}
	}
}

// overheadPct compares the median operation latency of the traced pass
// against the untraced one.
func overheadPct(untraced, traced []float64) float64 {
	return 100 * (median(traced)/median(untraced) - 1)
}

// campaignE2E reports a pass of rounds. Throughput is a round's cells
// over the median round time, so one round slowed by the host does not
// move it; reads between rounds are not counted.
func (b *bench) campaignE2E(st *roundStats) {
	secs := median(st.writeMs) / 1000
	b.e2e["cells_per_s"] = ratio(st.perR, secs)
	// A warm cell simulates its suffix on both sources; the shared
	// prefix is simulated once per worker and not counted.
	b.e2e["sim_irqs_per_s"] = ratio(st.perR*2*suffixEvents, secs)
	b.e2e["write_p50_ms"] = median(st.writeMs)
	b.e2e["read_p50_ms"] = median(st.readMs)
}

// serveLayers fills the serve, campaign, store and cluster layer metrics
// from a /metrics delta over the traced pass (and the scrape after it
// for gauges).
func (b *bench) serveLayers(d, after promSample) {
	jobs := d["repro_server_job_seconds_count"]
	b.layer["serve.job_exec_ms"] = 1000 * ratio(d["repro_server_job_seconds_sum"], jobs)
	lookups := d["repro_server_cache_hits_total"] + d["repro_server_cache_store_hits_total"] + d["repro_server_cache_misses_total"]
	b.layer["serve.cache_hit_ratio"] = ratio(d["repro_server_cache_hits_total"], lookups)
	b.layer["serve.store_hit_ratio"] = ratio(d["repro_server_cache_store_hits_total"], lookups)
	b.layer["serve.coalesced"] = d["repro_server_jobs_coalesced_total"]
	b.layer["serve.rejected"] = d["repro_server_jobs_rejected_total"]
	b.layer["serve.journal_compactions"] = d["repro_journal_compactions_total"]
	merged := d["repro_campaign_cells_merged_total"]
	b.layer["campaign.cells_merged"] = merged
	b.layer["campaign.cell_cache_hits"] = d["repro_campaign_cell_cache_hits_total"]
	b.layer["store.puts"] = d["repro_store_puts_total"]
	b.layer["store.bytes_on_disk"] = after["repro_store_bytes_on_disk"]
	b.layer["cluster.dispatch_ratio"] = ratio(d["repro_cluster_cells_dispatched_total"], merged)
	b.layer["cluster.dispatch_failures"] = d["repro_cluster_dispatch_failures_total"]
	b.layer["cluster.reowned"] = d["repro_cluster_cells_reowned_total"]
	b.layer["cluster.peer_fetch_hits"] = d["repro_cluster_peer_fetch_hits_total"]
	b.layer["cluster.checksum_failures"] = d["repro_cluster_peer_checksum_failures_total"]
	b.check(d["repro_cluster_peer_checksum_failures_total"] == 0, "peer fetch checksum failures: %v", d["repro_cluster_peer_checksum_failures_total"])
}

// shadowRound shadow-replays a served round and charges the difference
// to the service: the round's wall time on every worker, per cell, minus
// the in-process cost of the same layer calls is what the journal,
// queue and HTTP add.
func (b *bench) shadowRound(r round, st *store.Store, workers int) error {
	cells, err := cellSpecs(r.spec)
	if err != nil {
		return err
	}
	agg, err := campaign.NewAggregate(r.spec)
	if err != nil {
		return err
	}
	per, err := b.shadowReplay(cells, agg, st)
	if err != nil {
		return err
	}
	var total float64
	for _, ms := range per {
		total += ms
	}
	n := float64(len(cells))
	b.layer["serve.residual_ms_per_cell"] = (float64(r.dur)/1e6*float64(workers) - total) / n
	return nil
}

// shadowStore opens the scratch store a shadow replay writes to, with
// the served daemon's fsync setting.
func (b *bench) shadowStore(fsync bool) (*store.Store, error) {
	return store.Open(filepath.Join(b.dir, "shadow-store"), store.Options{Fsync: fsync, Registry: metrics.NewRegistry()})
}

// shadowReplay re-runs served cells in-process through the layer calls
// the daemon makes for each — campaign.Runner.Run, report.EncodeCell,
// store.Put/Get when st is not nil (a daemon with a data dir) and
// Aggregate.MergeCell when agg is not nil — and times each. It returns
// every cell's summed layer time in milliseconds.
func (b *bench) shadowReplay(cells []campaign.CellSpec, agg *campaign.Aggregate, st *store.Store) ([]float64, error) {
	runner := campaign.NewRunner()
	var runMs, encUs, putMs, getUs, mergeUs, per []float64
	var bytesOut float64
	for i, cs := range cells {
		t0 := time.Now()
		res, err := runner.Run(cs)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		body, err := report.EncodeCell(res)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		cost := t2.Sub(t0) // the layer calls that produce and keep a cell
		if st != nil {
			key := fmt.Sprint("shadow", i)
			if err := st.Put(key, body); err != nil {
				return nil, err
			}
			t3 := time.Now()
			if _, ok := st.Get(key); !ok {
				return nil, fmt.Errorf("shadow store lost %s", key)
			}
			cost += t3.Sub(t2)
			putMs = append(putMs, float64(t3.Sub(t2))/1e6)
			getUs = append(getUs, float64(time.Since(t3))/1e3)
		}
		if agg != nil {
			t4 := time.Now()
			if err := agg.MergeCell(i, res); err != nil {
				return nil, err
			}
			cost += time.Since(t4)
			mergeUs = append(mergeUs, float64(time.Since(t4))/1e3)
		}
		if i > 0 { // the first cell also pays the prefix fork
			runMs = append(runMs, float64(t1.Sub(t0))/1e6)
		} else {
			b.layer["campaign.prefix_ms"] = float64(t1.Sub(t0)) / 1e6
		}
		encUs = append(encUs, float64(t2.Sub(t1))/1e3)
		bytesOut += float64(len(body))
		per = append(per, float64(cost)/1e6)
	}
	b.layer["campaign.cell_ms"] = median(runMs)
	b.layer["campaign.prefix_ms"] -= median(runMs)
	b.layer["report.encode_cell_us"] = median(encUs)
	b.layer["report.cell_bytes"] = ratio(bytesOut, float64(len(cells)))
	if st != nil {
		b.layer["store.put_ms"] = median(putMs)
		b.layer["store.get_us"] = median(getUs)
	}
	if agg != nil {
		b.layer["campaign.merge_us"] = median(mergeUs)
	}
	return per, nil
}

// sampleGauge polls the sum of gs every millisecond until the returned
// function is called, which stops the poller and returns the largest
// sum seen.
func sampleGauge(gs ...*metrics.Gauge) func() float64 {
	stop := make(chan struct{})
	peak := make(chan int64)
	go func() {
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		var max int64
		for {
			var v int64
			for _, g := range gs {
				v += g.Value()
			}
			if v > max {
				max = v
			}
			select {
			case <-stop:
				peak <- max
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return float64(<-peak)
	}
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}
