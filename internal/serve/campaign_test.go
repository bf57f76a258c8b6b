package serve

// Campaign orchestrator tests: the streaming aggregation tier over the
// serve/store/engine stack. The acceptance invariant throughout is
// byte-identity — the aggregate a campaign converges to over HTTP
// (streamed, crashed-and-resumed, or resubmitted from the store) must
// equal the sequential in-process fold of the same generator spec,
// byte for byte.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/metrics"
	"repro/internal/report"
)

// smallCampaign is the 8-cell spec shared with internal/campaign's
// tests: 2 faults × 2 intensities × 2 seeds, short prefix and suffix.
const smallCampaign = `{
  "faults": ["babbling-idiot", "stuck-line"],
  "intensities": {"min": 0.25, "max": 1.0, "steps": 2},
  "seeds": {"base": 1, "count": 2},
  "prefix_events": 60,
  "suffix_events": 25
}`

// foldCampaign computes the in-process reference bytes for a spec.
func foldCampaign(t *testing.T, specJSON string) []byte {
	t.Helper()
	var spec campaign.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	agg, err := campaign.Fold(context.Background(), spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	body, err := report.EncodeCampaign(agg)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func postCampaign(t *testing.T, url, spec string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/campaigns", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, err := readAllClose(resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func readAllClose(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// sameJSON compares two JSON documents modulo whitespace: view
// endpoints re-indent the embedded aggregate, so only the standalone
// body endpoints (resubmit, GET /v1/results/{key}) are compared as
// exact bytes.
func sameJSON(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		t.Fatalf("compact: %v: %s", err, a)
	}
	if err := json.Compact(&cb, b); err != nil {
		t.Fatalf("compact: %v: %s", err, b)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// waitCampaignDone polls GET /v1/campaigns/{id} until terminal and
// returns the final view.
func waitCampaignDone(t *testing.T, url, id string) campaignView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := get(t, url+"/v1/campaigns/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll campaign %s: %d %s", id, resp.StatusCode, body)
		}
		var v campaignView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never finished: %+v", id, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCampaignStreamConvergesToLocalFold is the tentpole acceptance
// test at small scale: submit a campaign over HTTP, follow the chunked
// stream to its terminal line, and require the final aggregate to be
// byte-identical to the sequential in-process fold. Then the finished
// campaign must be servable from every angle — poll, resubmit (cache
// tier), and GET /v1/results/{key} — with the same bytes.
func TestCampaignStreamConvergesToLocalFold(t *testing.T) {
	want := foldCampaign(t, smallCampaign)
	reg := metrics.NewRegistry()
	_, ts := newTestServer(t, Options{Workers: 2, Registry: reg})

	resp, body := postCampaign(t, ts.URL, smallCampaign)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var accepted campaignView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.TotalCells != 8 || accepted.Status != StatusRunning {
		t.Fatalf("unexpected acceptance view: %+v", accepted)
	}

	// Follow the stream: progress must be monotone, every chunk a valid
	// view, the last chunk terminal.
	sresp, err := http.Get(ts.URL + "/v1/campaigns/" + accepted.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", sresp.StatusCode)
	}
	var last campaignView
	prevDone := -1
	lines := 0
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream chunk %d: %v: %s", lines, err, sc.Bytes())
		}
		if last.Done < prevDone {
			t.Fatalf("stream progress went backwards: %d after %d", last.Done, prevDone)
		}
		prevDone = last.Done
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || last.Status != StatusDone || last.Done != 8 {
		t.Fatalf("stream ended without a terminal chunk: %d lines, last %+v", lines, last)
	}
	if !sameJSON(t, last.Aggregate, want) {
		t.Fatalf("streamed final aggregate diverges from local fold:\n%s\n%s", last.Aggregate, want)
	}
	if last.Errors != 0 {
		t.Fatalf("campaign finished with %d cell errors", last.Errors)
	}

	// Poll view agrees.
	final := waitCampaignDone(t, ts.URL, accepted.ID)
	if !sameJSON(t, final.Aggregate, want) {
		t.Fatal("polled aggregate diverges from local fold")
	}

	// Resubmission short-circuits on the stored aggregate.
	r2, b2 := postCampaign(t, ts.URL, smallCampaign)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d %s", r2.StatusCode, b2)
	}
	if src := r2.Header.Get("X-Cache"); src != "hit" && src != "store" {
		t.Fatalf("resubmit served X-Cache %q, want a cache tier", src)
	}
	if !bytes.Equal(b2, want) {
		t.Fatal("resubmitted campaign bytes diverge from local fold")
	}

	// The final document resolves by content address too.
	r3, b3 := get(t, ts.URL+"/v1/results/"+final.Key)
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("results by key: %d %s", r3.StatusCode, b3)
	}
	if !bytes.Equal(b3, want) {
		t.Fatal("result-by-key bytes diverge from local fold")
	}

	// Warm-prefix cell dedupe is observable: 8 distinct cells ran as 8
	// jobs, and the aggregate merged exactly 8 cells.
	if got := reg.Counter("repro_campaign_cells_merged_total").Value(); got != 8 {
		t.Fatalf("merged %d cells, want 8", got)
	}
}

// TestCampaignCrashMidCampaignResumesByteIdentical is the crashtest
// oracle extended to campaigns: the journal dies mid-campaign (after
// the campaign record and a couple of cell accepts), the daemon is torn
// down, and a second daemon on the same data dir must resume the
// campaign under its original id and converge to the exact bytes of an
// uninterrupted local fold.
func TestCampaignCrashMidCampaignResumesByteIdentical(t *testing.T) {
	want := foldCampaign(t, smallCampaign)
	dir := t.TempDir()

	reg1 := metrics.NewRegistry()
	s1, err := New(Options{Workers: 1, DataDir: dir, Registry: reg1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	// Kill after 3 more records: the campaign record plus two cell
	// accepts reach disk; everything after is lost, as in a SIGKILL.
	s1.jl.kill(3)
	resp, body := postCampaign(t, ts1.URL, smallCampaign)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var accepted campaignView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	// The feeder expands the campaign asynchronously after the 202. A
	// Shutdown that overtakes it stops the expansion before any cell is
	// admitted, and then no result can survive the crash; wait for the
	// two accepts the journal takes.
	deadline := time.Now().Add(10 * time.Second)
	for reg1.Counter("repro_server_jobs_accepted_total").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the feeder never admitted the two pre-crash cells")
		}
		time.Sleep(time.Millisecond)
	}
	// Let the dying daemon settle: the two accepted cells run (their
	// results reach the store; their terminal records die with the
	// journal), the rest are refused. Shutdown's compaction fails on the
	// dead journal, preserving the crash state.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = s1.Shutdown(ctx)
	cancel()
	ts1.Close()

	reg2 := metrics.NewRegistry()
	s2, err := New(Options{Workers: 2, DataDir: dir, Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	waitReady(t, s2)
	if got := reg2.Counter("repro_campaign_resumed_total").Value(); got != 1 {
		t.Fatalf("resumed %d campaigns, want 1", got)
	}

	// Same id, eventual completion, identical bytes.
	final := waitCampaignDone(t, ts2.URL, accepted.ID)
	if final.Status != StatusDone || final.Errors != 0 {
		t.Fatalf("resumed campaign did not finish cleanly: %+v", final)
	}
	if !sameJSON(t, final.Aggregate, want) {
		t.Fatalf("resumed aggregate diverges from uninterrupted fold:\n%s\n%s", final.Aggregate, want)
	}
	// At least the two pre-crash cells refolded from the store.
	if hits := reg2.Counter("repro_campaign_cell_cache_hits_total").Value(); hits < 1 {
		t.Fatalf("resume refolded %d cells from the store, want ≥ 1", hits)
	}
}

// TestCampaignJournalLiveCompaction drives a campaign with a 1-byte
// compaction threshold — every retirement triggers a rewrite — and
// requires (a) compactions actually ran concurrently with admission,
// (b) the journal ends small despite dozens of records of traffic,
// (c) a torn tail injected after the fact is dropped on reopen, and
// (d) the restarted daemon replays nothing yet serves the campaign
// from the store byte-identically.
func TestCampaignJournalLiveCompaction(t *testing.T) {
	want := foldCampaign(t, smallCampaign)
	dir := t.TempDir()

	reg1 := metrics.NewRegistry()
	s1, err := New(Options{Workers: 2, DataDir: dir, Registry: reg1, JournalCompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	resp, body := postCampaign(t, ts1.URL, smallCampaign)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var accepted campaignView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	final := waitCampaignDone(t, ts1.URL, accepted.ID)
	if final.Status != StatusDone {
		t.Fatalf("campaign did not finish: %+v", final)
	}
	if !sameJSON(t, final.Aggregate, want) {
		t.Fatal("aggregate diverges from local fold under live compaction")
	}
	if got := reg1.Counter("repro_journal_compactions_total").Value(); got < 1 {
		t.Fatalf("live compaction never ran (%d)", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	ts1.Close()

	wal := filepath.Join(dir, "journal.wal")
	if fi, err := os.Stat(wal); err != nil {
		t.Fatal(err)
	} else if fi.Size() != 0 {
		// Clean drain with no live campaigns compacts to empty.
		t.Fatalf("journal holds %d bytes after clean drain, want 0", fi.Size())
	}
	// Torn-tail injection: garbage appended where a half-written record
	// would be must be truncated away on reopen, not parsed, not fatal.
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("\x00\x00\x00\x99torn-half-record")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg2 := metrics.NewRegistry()
	s2, err := New(Options{Workers: 1, DataDir: dir, Registry: reg2, JournalCompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	waitReady(t, s2)
	if got := reg2.Counter("repro_journal_torn_tail_total").Value(); got != 1 {
		t.Fatalf("torn tail not detected (%d)", got)
	}
	if got := reg2.Counter("repro_journal_replayed_jobs_total").Value(); got != 0 {
		t.Fatalf("replayed %d jobs after compaction, want 0", got)
	}
	r2, b2 := postCampaign(t, ts2.URL, smallCampaign)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit after restart: %d %s", r2.StatusCode, b2)
	}
	if !bytes.Equal(b2, want) {
		t.Fatal("stored campaign bytes diverge after compaction + restart")
	}
}

// TestCampaignSingleflight pins campaign-level dedupe: an identical
// spec submitted while the first is still running attaches to the same
// campaign id instead of expanding a second fleet of cells.
func TestCampaignSingleflight(t *testing.T) {
	release := make(chan struct{})
	gated := func(ctx context.Context, sp *Spec) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		// A syntactically valid cell document with no latency samples:
		// enough for the fold to complete deterministically.
		return []byte(fmt.Sprintf(`{"spec": %s, "fork_us": 0, "count": 0, "min_cycles": 0, "max_cycles": 0, "sum_cycles": 0, "grants": 0, "denied": 0, "interference_cycles": 0, "budget_cycles": 0, "victim_max_cycles": 0, "bound_cycles": 0, "bound_note": "", "pass": true, "violation": "", "fingerprint": ""}`,
			mustJSON(sp.Cell))), nil
	}
	_, ts := newTestServer(t, Options{Workers: 2, QueueSize: 64, Executor: gated})

	r1, b1 := postCampaign(t, ts.URL, smallCampaign)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", r1.StatusCode, b1)
	}
	var v1 campaignView
	if err := json.Unmarshal(b1, &v1); err != nil {
		t.Fatal(err)
	}
	r2, b2 := postCampaign(t, ts.URL, smallCampaign)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d %s", r2.StatusCode, b2)
	}
	var v2 campaignView
	if err := json.Unmarshal(b2, &v2); err != nil {
		t.Fatal(err)
	}
	if v2.ID != v1.ID {
		t.Fatalf("identical in-flight campaigns got distinct ids %s and %s", v1.ID, v2.ID)
	}
	close(release)
	final := waitCampaignDone(t, ts.URL, v1.ID)
	if final.Status != StatusDone || final.Done != 8 {
		t.Fatalf("campaign did not finish: %+v", final)
	}
}

func mustJSON(v any) string {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(buf)
}
