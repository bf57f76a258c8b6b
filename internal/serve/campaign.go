package serve

// The campaign orchestrator: million-cell generator expansion with
// streaming aggregation, layered on the primitives the daemon already
// has. A client POSTs a generator spec (internal/campaign.Spec); the
// daemon expands it into cells in the spec's deterministic order and
// feeds each cell through the *same* admission path as any job —
// content address, cache short-circuit, singleflight, write-ahead
// journal, bounded queue — so identical cells are computed once even
// across overlapping campaigns, and every cell result is durable the
// instant it exists.
//
// Aggregation is a commutative-monoid fold (internal/campaign): cells
// merge in completion order, yet the encoded aggregate is byte-for-byte
// the bytes a sequential in-process fold produces. That is the whole
// crash-safety story: a campaign is journaled as its generator spec
// (one record, however many cells), and resuming after a SIGKILL just
// refolds — stored cells are cache hits, missing cells recompute to
// identical bytes, and the final aggregate cannot diverge.
//
// Lock order: jmu → cmu → (job.mu | journal.mu). cmu serialises every
// aggregate mutation, so the fold itself is single-writer.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/report"
)

// campaignState tracks one accepted campaign through its lifecycle:
// running → done/failed. A campaign interrupted by drain or crash
// stays "running" with its journal record live, and the next start
// resumes it.
type campaignState struct {
	id  string
	key string

	// Everything below is guarded by Server.cmu.
	agg       *campaign.Aggregate
	status    string // StatusRunning / StatusDone / StatusFailed
	err       string
	body      []byte        // final encoded aggregate (done only; nil after replay)
	watch     chan struct{} // closed + replaced on every aggregate change
	recovered bool          // rebuilt by journal replay
}

// bumpLocked wakes every stream watcher. Callers hold cmu.
func (cs *campaignState) bumpLocked() {
	close(cs.watch)
	cs.watch = make(chan struct{})
}

// campaignView is the body of POST /v1/campaigns (202), GET
// /v1/campaigns/{id}, and each chunk of the stream endpoint.
type campaignView struct {
	ID         string          `json:"id"`
	Status     string          `json:"status"`
	Key        string          `json:"key"`
	TotalCells int             `json:"total_cells"`
	Done       int             `json:"done"`
	Errors     int             `json:"errors"`
	Violations int             `json:"violations"`
	Error      string          `json:"error,omitempty"`
	Aggregate  json.RawMessage `json:"aggregate,omitempty"`
}

// campaignViewLocked snapshots cs. Callers hold cmu. For a campaign
// replayed as done the body lives in the store, not here — the caller
// fills Aggregate from the cache by key, outside the lock.
func (s *Server) campaignViewLocked(cs *campaignState, includeAgg bool) campaignView {
	v := campaignView{
		ID:         cs.id,
		Status:     cs.status,
		Key:        cs.key,
		TotalCells: cs.agg.TotalCells,
		Done:       cs.agg.Done,
		Errors:     cs.agg.Errors,
		Violations: cs.agg.Violations,
		Error:      cs.err,
	}
	if includeAgg {
		switch cs.status {
		case StatusDone:
			v.Aggregate = json.RawMessage(cs.body)
		case StatusRunning:
			if buf, err := report.EncodeCampaign(cs.agg); err == nil {
				v.Aggregate = json.RawMessage(buf)
			}
		}
	}
	return v
}

// handleCampaignSubmit admits a campaign: normalize the generator spec,
// content-address it, short-circuit on a stored final aggregate,
// singleflight against a running campaign with the same key, and
// otherwise journal the spec (write-ahead, under the admission lock)
// before acking 202 and starting the feeder.
func (s *Server) handleCampaignSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w)
		return
	}
	var spec campaign.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, "invalid campaign spec: %v", err)
		return
	}
	agg, err := campaign.NewAggregate(spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := campaignKey(&agg.Spec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A finished campaign is content-addressed like any job: the same
	// spec resubmitted serves the stored aggregate without re-expanding
	// a single cell.
	if body, src := s.cache.Get(key); src != cacheMiss {
		writeResult(w, key, src, body)
		return
	}
	// A peer may have finished this exact campaign already (content
	// addressing covers aggregates too): one fetch beats re-expanding
	// every cell.
	if body, src, ok := s.peerFetch(r.Context(), key); ok {
		writeResult(w, key, src, body)
		return
	}

	s.jmu.Lock()
	s.cmu.Lock()
	if cs := s.campInflight[key]; cs != nil {
		v := s.campaignViewLocked(cs, false)
		s.cmu.Unlock()
		s.jmu.Unlock()
		w.Header().Set("Location", "/v1/campaigns/"+v.ID)
		writeJSON(w, http.StatusAccepted, v)
		return
	}
	cs := &campaignState{
		id:     fmt.Sprintf("c%06d", s.nextCampID.Add(1)),
		key:    key,
		agg:    agg,
		status: StatusRunning,
		watch:  make(chan struct{}),
	}
	// Write-ahead, exactly like a job accept: one record carries the
	// whole generator spec, so replay re-creates the campaign from
	// nothing. No ack without the record.
	if s.jl != nil {
		spec := agg.Spec
		//reprolint:allow lockheld write-ahead ordering: the campaign record must be durable before the ack, the fsync is the admission cost
		if err := s.jl.append(journalRecord{Op: opCampaign, ID: cs.id, Key: cs.key, Camp: &spec}); err != nil {
			s.cmu.Unlock()
			s.jmu.Unlock()
			s.journalErrs.Inc()
			s.unavailable(w)
			return
		}
	}
	s.campaigns[cs.id] = cs
	s.campInflight[key] = cs
	v := s.campaignViewLocked(cs, false)
	s.cmu.Unlock()
	s.jmu.Unlock()

	s.campAccepted.Inc()
	s.campActive.Add(1)
	s.campWG.Add(1)
	go s.feedCampaign(cs)
	w.Header().Set("Location", "/v1/campaigns/"+cs.id)
	writeJSON(w, http.StatusAccepted, v)
}

// feedCampaign expands the generator spec in its deterministic order
// and drives every cell to a merged terminal state: stored cells merge
// immediately (cache hit), fresh cells are admitted through the job
// queue — riding its backpressure, attaching to in-flight identical
// cells — and merged by per-cell waiters as they finish. Completion
// order does not matter: the aggregate is a commutative fold.
func (s *Server) feedCampaign(cs *campaignState) {
	defer s.campWG.Done()
	var wg sync.WaitGroup
	var slots chan struct{} // bounds concurrent remote cell dispatches
	if s.cluster != nil {
		slots = make(chan struct{}, s.cluster.ScatterWidth())
	}
	for _, c := range cs.agg.Spec.Expand() {
		if s.draining.Load() {
			// Stop expanding; the campaign's journal record is live, so
			// the next start resumes exactly here (stored cells refold).
			break
		}
		cell := cs.agg.Spec.CellSpec(c)
		sp := &Spec{Kind: "cell", Cell: &cell}
		key, err := sp.key()
		if err != nil {
			s.mergeCellFailure(cs, c.Index, err.Error())
			continue
		}
		if body, src := s.cache.Get(key); src != cacheMiss {
			s.campCellHits.Inc()
			s.mergeCellBody(cs, c.Index, body)
			continue
		}
		// Ring scatter: a cell owned by a usable peer computes there
		// (its result lands in both stores); a dead owner's cells are
		// re-owned here. Local cells fall through to the normal path.
		if s.scatterCell(cs, c.Index, sp, key, &wg, slots) {
			continue
		}
		jb, ok := s.submitCell(sp, key)
		if !ok {
			continue // shutting down or journal dead; resumes on restart
		}
		wg.Add(1)
		go func(idx int, jb *job) {
			defer wg.Done()
			s.mergeCellJob(cs, idx, jb)
		}(c.Index, jb)
	}
	wg.Wait()
	s.finishCampaign(cs)
}

// submitCell admits one cell through the same path as an HTTP
// submission: singleflight on the content address, write-ahead accept
// record under jmu, bounded queue. Backpressure is ridden, not
// surfaced — the feeder waits for queue space instead of failing the
// cell. Returns ok=false when the daemon is shutting down (or the
// journal died): the cell stays unmerged and resumes on restart.
func (s *Server) submitCell(sp *Spec, key string) (*job, bool) {
	for {
		s.jmu.Lock()
		if existing := s.inflight[key]; existing != nil {
			s.jmu.Unlock()
			s.coalesced.Inc()
			return existing, true
		}
		// Don't write-ahead an accept that is visibly about to be
		// refused: probe for queue space first. The probe is racy, but a
		// lost race costs one cancelled record — the same as an HTTP
		// submission racing a full queue — never a lost cell.
		if len(s.queue) == cap(s.queue) {
			s.jmu.Unlock()
			if s.draining.Load() {
				return nil, false
			}
			time.Sleep(time.Millisecond)
			continue
		}
		jb := &job{
			id:     fmt.Sprintf("j%08d", s.nextID.Add(1)),
			key:    key,
			spec:   sp,
			done:   make(chan struct{}),
			status: StatusQueued,
		}
		//reprolint:allow lockheld write-ahead ordering: the cell accept must be durable before the job exists, the fsync is the admission cost
		if err := s.journalAccept(jb); err != nil {
			s.jmu.Unlock()
			return nil, false
		}
		adm := s.enqueue(jb)
		if adm == admitted {
			s.jobs[jb.id] = jb
			s.inflight[key] = jb
		}
		s.jmu.Unlock()
		switch adm {
		case admitted:
			s.accepted.Inc()
			return jb, true
		case shuttingDown:
			s.journalTerminal(jb, opCancelled, "refused: shutting down")
			return nil, false
		case queueFull:
			s.journalTerminal(jb, opCancelled, "refused: queue full")
			time.Sleep(time.Millisecond)
		}
	}
}

// mergeCellJob waits one cell job out and merges its terminal state.
func (s *Server) mergeCellJob(cs *campaignState, idx int, jb *job) {
	<-jb.done
	jb.mu.Lock()
	status, body, errMsg := jb.status, jb.body, jb.err
	jb.mu.Unlock()
	switch status {
	case StatusDone:
		if len(body) == 0 {
			// A replayed job finished from the store without loading the
			// body into memory; fetch it by content address.
			if b, src := s.cache.Get(jb.key); src != cacheMiss {
				body = b
			}
		}
		if len(body) == 0 {
			s.mergeCellFailure(cs, idx, "cell result evicted before merge")
			return
		}
		s.mergeCellBody(cs, idx, body)
	case StatusFailed:
		s.mergeCellFailure(cs, idx, errMsg)
	case StatusCancelled:
		if s.draining.Load() {
			return // unmerged: the restart recomputes and resumes this cell
		}
		s.mergeCellFailure(cs, idx, errMsg)
	}
}

// mergeCellBody folds one stored cell document into the aggregate.
func (s *Server) mergeCellBody(cs *campaignState, idx int, body []byte) {
	cr, err := report.DecodeCell(body)
	if err != nil {
		s.mergeCellFailure(cs, idx, err.Error())
		return
	}
	s.cmu.Lock()
	err = cs.agg.MergeCell(idx, cr)
	cs.bumpLocked()
	s.cmu.Unlock()
	if err == nil {
		s.campMerged.Inc()
		if cr.Spec.Kind == campaign.KindDiffuzz {
			s.diffuzzMerged.Inc()
			if !cr.Pass {
				s.diffuzzViolations.Inc()
			}
		}
	}
}

// mergeCellFailure folds one failed cell; the campaign completes with
// the failure counted per bucket instead of stalling.
func (s *Server) mergeCellFailure(cs *campaignState, idx int, msg string) {
	s.cmu.Lock()
	err := cs.agg.MergeFailure(idx, msg)
	cs.bumpLocked()
	s.cmu.Unlock()
	if err == nil {
		s.campMerged.Inc()
	}
}

// finishCampaign settles a campaign once its feeder is done. Complete
// aggregates are encoded, stored under the campaign's content address,
// published as done and journaled terminal. Store before publish: a
// client that reads the terminal stream chunk fetches the aggregate by
// key at once. Store before terminal record: the crash between the two
// replays into a refold that lands on identical bytes. An incomplete
// aggregate means drain interrupted expansion: the campaign stays
// running and its journal record live.
func (s *Server) finishCampaign(cs *campaignState) {
	s.cmu.Lock()
	if cs.status != StatusRunning || !cs.agg.Complete() {
		s.cmu.Unlock()
		return
	}
	body, err := report.EncodeCampaign(cs.agg)
	s.cmu.Unlock()
	if err == nil {
		s.cache.Put(cs.key, body)
	}

	s.cmu.Lock()
	if err != nil {
		cs.status = StatusFailed
		cs.err = err.Error()
	} else {
		cs.status = StatusDone
		cs.body = body
	}
	delete(s.campInflight, cs.key)
	cs.bumpLocked()
	status, errMsg := cs.status, cs.err
	s.cmu.Unlock()

	if status == StatusDone {
		s.campaignTerminal(cs, opDone, "")
		s.campDone.Inc()
	} else {
		s.campaignTerminal(cs, opFailed, errMsg)
		s.campFailed.Inc()
	}
	s.campActive.Add(-1)
	s.retireCampaign(cs)
	s.maybeCompactJournal()
}

// campaignTerminal best-effort-logs a campaign's terminal transition,
// with the same safety argument as journalTerminal: a lost record
// resumes the campaign, and the refold short-circuits per cell.
func (s *Server) campaignTerminal(cs *campaignState, op, errMsg string) {
	if s.jl == nil {
		return
	}
	if err := s.jl.append(journalRecord{Op: op, ID: cs.id, Err: errMsg}); err != nil {
		s.journalErrs.Inc()
	}
}

// retireCampaign enforces the finished-campaign retention bound
// (shared with jobs: Options.JobRetention). An aged-out id is a 404;
// the final aggregate remains resolvable via GET /v1/results/{key}.
func (s *Server) retireCampaign(cs *campaignState) {
	s.cmu.Lock()
	s.campFinished = append(s.campFinished, cs.id)
	for len(s.campFinished) > s.opts.JobRetention {
		delete(s.campaigns, s.campFinished[0])
		copy(s.campFinished, s.campFinished[1:])
		s.campFinished = s.campFinished[:len(s.campFinished)-1]
	}
	s.cmu.Unlock()
}

// handleCampaign serves one campaign's state, including the current
// (running) or final (done) aggregate document.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.cmu.Lock()
	cs := s.campaigns[id]
	var v campaignView
	if cs != nil {
		v = s.campaignViewLocked(cs, true)
	}
	s.cmu.Unlock()
	if cs == nil {
		httpError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	if v.Status == StatusDone && len(v.Aggregate) == 0 {
		if body, src := s.cache.Get(cs.key); src != cacheMiss {
			v.Aggregate = json.RawMessage(body)
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// handleCampaignStream streams incremental aggregates as NDJSON: one
// campaignView per line, a new line whenever cells merged since the
// last, the final line terminal. The stream is chunked (flushed per
// line) so a client watches a million-cell campaign converge without
// polling; every line's aggregate is a valid deterministic fold of the
// cells merged so far.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.cmu.Lock()
	cs := s.campaigns[id]
	s.cmu.Unlock()
	if cs == nil {
		httpError(w, http.StatusNotFound, "unknown campaign %q", id)
		return
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Campaign-Key", cs.key)
	w.WriteHeader(http.StatusOK)
	for {
		s.cmu.Lock()
		v := s.campaignViewLocked(cs, true)
		watch := cs.watch
		s.cmu.Unlock()
		if v.Status == StatusDone && len(v.Aggregate) == 0 {
			if body, src := s.cache.Get(cs.key); src != cacheMiss {
				v.Aggregate = json.RawMessage(body)
			}
		}
		buf, err := json.Marshal(v)
		if err != nil {
			return
		}
		if _, err := w.Write(append(buf, '\n')); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
		if v.Status != StatusRunning {
			return
		}
		select {
		case <-watch:
			// Merges coalesce naturally: however many cells landed while
			// this line was being written, the next snapshot holds them all.
		case <-r.Context().Done():
			return
		case <-time.After(time.Second):
			// Heartbeat: a stalled campaign still streams its state.
		}
	}
}

// liveRecords snapshots the journal's live set: generator specs of
// non-terminal campaigns, then accept records of non-terminal jobs.
// Callers hold jmu — accepts are appended under jmu, so the snapshot
// can never miss one; terminal records racing the snapshot are merely
// re-derived on the next replay (the store short-circuits them).
func (s *Server) liveRecords() []journalRecord {
	var live []journalRecord
	s.cmu.Lock()
	cids := make([]string, 0, len(s.campaigns))
	for id := range s.campaigns {
		cids = append(cids, id)
	}
	sort.Strings(cids)
	for _, id := range cids {
		cs := s.campaigns[id]
		if cs.status != StatusRunning {
			continue
		}
		spec := cs.agg.Spec
		live = append(live, journalRecord{Op: opCampaign, ID: cs.id, Key: cs.key, Camp: &spec})
	}
	s.cmu.Unlock()
	ids := make([]string, 0, len(s.jobs))
	for id := range s.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		jb := s.jobs[id]
		jb.mu.Lock()
		status := jb.status
		jb.mu.Unlock()
		if status == StatusQueued || status == StatusRunning {
			live = append(live, journalRecord{Op: opAccept, ID: jb.id, Key: jb.key, Spec: jb.spec})
		}
	}
	return live
}

// maybeCompactJournal rewrites the journal down to its live records
// once it crosses Options.JournalCompactBytes. The snapshot runs under
// jmu — the admission lock — so no accept can slip between snapshot
// and rewrite; the rewrite itself is tmp+rename (journal.compact), so
// a crash mid-compaction leaves either the old journal or the new one,
// never a torn hybrid.
func (s *Server) maybeCompactJournal() {
	if s.jl == nil || s.opts.JournalCompactBytes <= 0 || s.jl.size() < s.opts.JournalCompactBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	defer s.compacting.Store(false)
	s.jmu.Lock()
	//reprolint:allow lockheld compaction must exclude concurrent accepts or the rewritten journal tears against admission order
	err := s.jl.compact(s.liveRecords())
	s.jmu.Unlock()
	if err == nil {
		s.compactions.Inc()
	}
}
