package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// ringNames are the members of the in-process ring.
var ringNames = []string{"n1", "n2", "n3"}

// ringReplicas is the replica-set size of every key (the default).
const ringReplicas = 2

// ringCache is each member's memory tier: room for several rounds, so
// every cell a round computes is still in its replicas' memory when it
// is read back. The members keep no data dir: with one, the run-to-run
// spread tracked the host disk's load rather than the cluster code, and
// campaign_durable and serve_mix already measure the durable tier.
const ringCache = 2048

// ring is three daemons, one worker each, on real loopback listeners,
// sharing one consistent-hash keyspace.
type ring struct {
	nodes    []*daemon
	clusters []*cluster.Cluster
	peers    []*http.Client // each node's transport for peer operations
}

func startRing(hc *http.Client) (*ring, error) {
	members := make([]cluster.Node, len(ringNames))
	lns := make([]net.Listener, len(ringNames))
	for i, name := range ringNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		members[i] = cluster.Node{Name: name, URL: "http://" + ln.Addr().String()}
	}
	r := &ring{}
	for i, name := range ringNames {
		reg := metrics.NewRegistry()
		peer := &http.Client{Transport: &http.Transport{}}
		cl, err := cluster.New(cluster.Config{Self: name, Members: members, Replicas: ringReplicas, HTTP: peer, Registry: reg})
		if err == nil {
			var d *daemon
			d, err = startDaemon(hc, serve.Options{Workers: 1, CacheSize: ringCache, Registry: reg, Cluster: cl}, lns[i])
			if err == nil {
				r.nodes, r.clusters, r.peers = append(r.nodes, d), append(r.clusters, cl), append(r.peers, peer)
				continue
			}
		}
		for _, l := range lns[i+1:] {
			l.Close()
		}
		return nil, errors.Join(err, r.stop())
	}
	return r, nil
}

func (r *ring) stop() error {
	var errs []error
	for i, d := range r.nodes {
		errs = append(errs, d.stop())
		r.clusters[i].Stop()
		r.peers[i].CloseIdleConnections()
	}
	return errors.Join(errs...)
}

func (r *ring) node(name string) *daemon {
	for i, n := range ringNames {
		if n == name {
			return r.nodes[i]
		}
	}
	return nil
}

// scrape sums one /metrics scrape over the members.
func (r *ring) scrape(hc *http.Client) (promSample, error) {
	sum := promSample{}
	for _, d := range r.nodes {
		s, err := scrape(hc, d.url)
		if err != nil {
			return nil, err
		}
		for k, v := range s {
			sum[k] += v
		}
	}
	return sum, nil
}

func runRingCampaign(b *bench) error {
	hc := newHTTPClient(b.nproc)
	defer hc.CloseIdleConnections()
	rg, err := timeSetup(b, 9, func() (*ring, error) { return startRing(hc) }, (*ring).stop)
	if err != nil {
		return err
	}
	defer func() {
		if err := rg.stop(); err != nil {
			b.note("stopping ring: %v", err)
		}
	}()
	nodes := make([]client.ClusterNode, len(ringNames))
	for i, name := range ringNames {
		nodes[i] = client.ClusterNode{Name: name, URL: rg.nodes[i].url}
	}
	cc, err := client.NewCluster(client.ClusterOptions{Nodes: nodes, Replicas: ringReplicas,
		Template: client.Options{HTTP: hc, MaxRetries: -1}})
	if err != nil {
		return err
	}
	keyRing := cluster.NewRing(ringNames)

	// The benchmark's own peer-fetch handle: a ring view with no self,
	// fetching straight from the members.
	members := make([]cluster.Node, len(ringNames))
	for i, name := range ringNames {
		members[i] = cluster.Node{Name: name, URL: rg.nodes[i].url}
	}
	fetcher, err := cluster.New(cluster.Config{Members: members, Replicas: ringReplicas, HTTP: hc, Registry: metrics.NewRegistry()})
	if err != nil {
		return err
	}
	var fetchMs []float64

	pass := func(dur time.Duration, first int, tr *tracer) *roundStats {
		st := &roundStats{}
		start := time.Now()
		for r := first; time.Since(start) < dur; r++ {
			sp := roundSpec(b.seed, r)
			cells, err := cellSpecs(sp)
			if !b.op(err) {
				continue
			}
			rd, coord, err := ringRound(cc, sp, tr, int64(r))
			if !b.op(err) {
				continue
			}
			st.add(rd, len(cells))
			for _, cs := range cells {
				key, lat, err := b.peerRead(hc, rg, keyRing, coord, cs, tr, int64(r))
				if !b.op(err) {
					continue
				}
				if lat > 0 {
					st.readMs = append(st.readMs, float64(lat)/1e6)
					if tr != nil && len(fetchMs) < 200 {
						t0 := time.Now()
						_, _, ok := fetcher.FetchResult(context.Background(), key)
						fetchMs = append(fetchMs, float64(time.Since(t0))/1e6)
						b.check(ok, "cluster.FetchResult %s: no member had verified bytes", key)
					}
				}
			}
		}
		return st
	}
	if !b.trace {
		st := pass(b.seconds, 0, nil)
		b.windowDone()
		b.campaignE2E(st)
		b.verifyRounds(st.rounds)
		return nil
	}
	cost := startCost()
	st := pass(b.seconds/2, 0, nil)
	cost.stop(b, st.cells)
	before, err := rg.scrape(hc)
	if err != nil {
		return err
	}
	var gauges []*metrics.Gauge
	for _, d := range rg.nodes {
		gauges = append(gauges, d.reg.Gauge("repro_server_queue_depth"))
	}
	depth := sampleGauge(gauges...)
	hedged, failovers := cc.Hedged(), cc.Failovers()
	tr := newTracer()
	traced := pass(b.seconds/2, 1000, tr)
	b.layer["serve.queue_depth_max"] = depth()
	after, err := rg.scrape(hc)
	if err != nil {
		return err
	}
	b.layer["client.hedged"] = float64(cc.Hedged() - hedged)
	b.layer["client.failovers"] = float64(cc.Failovers() - failovers)
	b.layer["cluster.fetch_ms"] = median(fetchMs)
	b.layer["trace.overhead_pct"] = overheadPct(st.writeMs, traced.writeMs)
	b.serveLayers(after.delta(before), after)
	b.finishTrace(tr)
	if len(traced.rounds) > 0 {
		if err := b.shadowRound(traced.rounds[0], nil, len(ringNames)); err != nil {
			return err
		}
	}
	b.verifyRounds(append(st.rounds, traced.rounds...))
	return nil
}

// ringRound submits a campaign through the ring-aware client, follows
// the coordinator's stream and resolves the final aggregate by content
// address across the ring.
func ringRound(cc *client.ClusterClient, sp campaign.Spec, tr *tracer, req int64) (round, string, error) {
	ctx := context.Background()
	start := time.Now()
	root := tr.begin("campaign.round", 0, req)
	defer tr.end(root)
	span := tr.begin("client.submit_campaign", root, req)
	cv, res, coord, err := cc.SubmitCampaign(ctx, sp)
	tr.end(span)
	if err != nil {
		return round{}, "", err
	}
	if res != nil {
		return round{}, "", fmt.Errorf("campaign seeds %d+ answered from the store: seeds are not fresh", sp.Seeds.Base)
	}
	span = tr.begin("serve.stream_campaign", root, req)
	err = cc.On(coord).StreamCampaign(ctx, cv.ID, nil)
	tr.end(span)
	if err != nil {
		return round{}, "", err
	}
	span = tr.begin("client.result_by_key", root, req)
	agg, err := cc.ResultByKey(ctx, cv.Key)
	tr.end(span)
	if err != nil {
		return round{}, "", err
	}
	return round{spec: sp, aggregate: agg, dur: time.Since(start)}, coord, nil
}

// peerRead reads one finished cell back through the member outside its
// replica set. The coordinator merged every cell, so it answers the key
// lookup from its own tiers. When the coordinator is in the replica set,
// the outside member holds nothing and must fetch the bytes from a
// replica (X-Cache: peer); the returned latency is that peer read.
// Otherwise the outside member is the coordinator itself and the read is
// local (latency 0: not a peer read).
func (b *bench) peerRead(hc *http.Client, rg *ring, keyRing *cluster.Ring, coord string, cs campaign.CellSpec, tr *tracer, req int64) (string, time.Duration, error) {
	span := tr.begin("serve.key_lookup", 0, req)
	ref, err := postJob(hc, rg.node(coord).url, cellJob(cs))
	tr.end(span)
	if err != nil {
		return "", 0, err
	}
	if ref.cache != "hit" && ref.cache != "store" {
		return "", 0, fmt.Errorf("coordinator answered cell %s seed %d with X-Cache %q", cs.Fault, cs.Seed, ref.cache)
	}
	reps := keyRing.Replicas(ref.key, ringReplicas)
	outside := ""
	for _, name := range ringNames {
		if name != reps[0] && name != reps[1] {
			outside = name
		}
	}
	span = tr.begin("serve.peer_read", 0, req)
	start := time.Now()
	a, err := getResult(hc, rg.node(outside).url, ref.key)
	lat := time.Since(start)
	tr.end(span)
	if err != nil {
		return "", 0, err
	}
	b.check(bytes.Equal(a.body, ref.body), "cell %s: bytes read through %s differ from the coordinator's", ref.key, outside)
	if outside == coord {
		return ref.key, 0, nil
	}
	b.check(a.cache == "peer", "cell %s read through %s with X-Cache %q, want peer", ref.key, outside, a.cache)
	return ref.key, lat, nil
}
