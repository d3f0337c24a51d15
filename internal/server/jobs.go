package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gridvo"
	"gridvo/internal/mechanism"
)

// JobState is one state of the job FSM every VO formation runs through —
// a sync /v1/vo/form request as well as a /v1/jobs submission.
// Transitions:
//
//	submit ──► queued ──► running ──► done
//	              │           ├─────► degraded   (result below the exact tier)
//	              │           └─────► failed     (worker panic / internal error)
//	              └── (drain rejects new submits with 503; queued jobs still run)
//
// A coalesced (deduped) submission stays queued, attached to the leader's
// in-flight solve, and jumps straight to the leader's terminal state when
// the shared result is clean. If the leader's run was fault-touched or
// failed, followers are re-enqueued (never shared) — see finish. That is
// the server's one retry rule.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobDegraded JobState = "degraded"
)

// terminal reports whether the state is final.
func (st JobState) terminal() bool {
	return st == JobDone || st == JobFailed || st == JobDegraded
}

// job is one VO-formation request tracked by the manager. A sync
// request's job has no id: it is never registered for polling.
type job struct {
	id   string
	key  uint64 // dedupe key: scenario content hash ⊕ rule ⊕ seed ⊕ budget
	sc   *mechanism.Scenario
	eng  *mechanism.Engine
	rule gridvo.Rule
	req  FormRequest

	created time.Time
	done    chan struct{} // closed on entering a terminal state

	// The fields below are guarded by the manager's mutex.
	state     JobState
	deduped   bool
	result    *FormResponse
	errMsg    string
	followers []*job // coalesced submissions awaiting this leader's solve
	started   time.Time
	finished  time.Time
}

// Submission failure modes, translated to HTTP codes by the handler.
var (
	errQueueFull  = errors.New("job queue full")
	errJobsClosed = errors.New("job tier is draining")
)

// jobManager owns the formation tier's state: the bounded queue the worker
// pool drains, the job registry polled by GET /v1/jobs/{id}, and the
// in-flight index that coalesces identical submissions (singleflight on
// the scenario content hash). All mutable state sits behind one mutex —
// every operation is O(1)-ish bookkeeping; the solves themselves run in
// workers with no lock held.
type jobManager struct {
	queue chan *job
	ttl   time.Duration
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	jobsPeak int             // len(jobs) high-water mark since jobs was last rebuilt
	inflight map[uint64]*job // dedupe key -> leader job in queued|running
	order    []*job          // terminal registered jobs in completion order (TTL GC)
	seq      int64
	closed   bool

	queuedTotal   int64
	dedupedTotal  int64
	requeuedTotal int64
	doneTotal     int64
	failedTotal   int64
	degradedTotal int64
	running       int
}

func newJobManager(depth int, ttl time.Duration) *jobManager {
	return &jobManager{
		queue:    make(chan *job, depth),
		ttl:      ttl,
		jobs:     map[string]*job{},
		inflight: map[uint64]*job{},
	}
}

// jobKey derives the dedupe key: two submissions share one solve only
// when every solve-relevant input matches — scenario content, rule, seed,
// requested budget, and the trace flag (it changes the response body).
func jobKey(scKey uint64, rule gridvo.Rule, req *FormRequest) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(scKey)
	w64(uint64(rule))
	w64(req.Seed)
	w64(uint64(req.TimeoutMS))
	if req.IncludeIterations {
		w64(1)
	} else {
		w64(0)
	}
	return h.Sum64()
}

// submit admits a job built with its key, scenario, engine, rule and
// request. When an identical job (same dedupe key) is already queued or
// running, the new job attaches to it as a follower — no queue slot
// consumed, one underlying solve — and is marked deduped. Otherwise the
// job is enqueued; a full queue rejects it with errQueueFull. A pollable
// job gets an id and stays in the registry until its TTL expires; a sync
// request's job does neither.
func (m *jobManager) submit(now time.Time, j *job, pollable bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errJobsClosed
	}
	m.gcLocked(now)
	j.created, j.done, j.state = now, make(chan struct{}), JobQueued
	if lead, ok := m.inflight[j.key]; ok {
		j.deduped = true
		lead.followers = append(lead.followers, j)
		m.dedupedTotal++
	} else {
		select {
		case m.queue <- j:
			m.inflight[j.key] = j
			m.queuedTotal++
		default:
			return errQueueFull
		}
	}
	if pollable {
		m.seq++
		j.id = fmt.Sprintf("j-%06d", m.seq)
		m.jobs[j.id] = j
		m.jobsPeak = max(m.jobsPeak, len(m.jobs))
	}
	return nil
}

// start marks a dequeued job running.
func (m *jobManager) start(j *job, now time.Time) {
	m.mu.Lock()
	j.state = JobRunning
	j.started = now
	m.running++
	m.mu.Unlock()
}

// completeLocked moves a job to a terminal state and, when it is
// registered, schedules it for TTL GC. Callers hold the mutex.
func (m *jobManager) completeLocked(j *job, now time.Time, state JobState, resp *FormResponse, errMsg string) {
	j.state = state
	j.result = resp
	j.errMsg = errMsg
	j.finished = now
	if j.id != "" {
		m.order = append(m.order, j)
	}
	switch state {
	case JobDone:
		m.doneTotal++
	case JobFailed:
		m.failedTotal++
	case JobDegraded:
		m.degradedTotal++
	}
	close(j.done)
}

// finish completes a leader job and resolves its followers. A clean
// result (no injected fault fired, no failure) is shared with every
// coalesced follower — that is the dedupe payoff. A fault-touched or
// failed run is NEVER shared (the job-tier extension of the PR 4 rule
// that fault-touched solves are never cached): the first follower is
// promoted to leader and re-enqueued for a fresh solve, with the
// remaining followers re-attached to it.
func (m *jobManager) finish(j *job, now time.Time, resp *FormResponse, faults int64, errMsg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	if m.inflight[j.key] == j {
		delete(m.inflight, j.key)
	}
	followers := j.followers
	j.followers = nil

	var state JobState
	switch {
	case errMsg != "":
		state = JobFailed
	case resp.Degraded || resp.Partial:
		state = JobDegraded
	default:
		state = JobDone
	}
	m.completeLocked(j, now, state, resp, errMsg)
	if len(followers) == 0 {
		return
	}
	if errMsg == "" && faults == 0 {
		for _, f := range followers {
			m.completeLocked(f, now, state, resp, "")
		}
		return
	}
	if m.closed {
		for _, f := range followers {
			m.completeLocked(f, now, JobFailed, nil, "server draining; leader result was not shareable")
		}
		return
	}
	lead := followers[0]
	lead.followers = followers[1:]
	select {
	case m.queue <- lead:
		m.inflight[j.key] = lead
		m.requeuedTotal++
	default:
		for _, f := range followers {
			m.completeLocked(f, now, JobFailed, nil, "queue full re-enqueueing after unshareable (fault-touched) result")
		}
	}
}

// get returns the job for id, or nil when unknown or GC'd.
func (m *jobManager) get(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// jobsShrinkRatio: gcLocked rebuilds the registry map once it holds at
// most 1/jobsShrinkRatio of its high-water mark. A Go map never releases
// its buckets, so without the rebuild a burst of pollable jobs would pin
// the burst's bucket arrays for the life of the process.
const jobsShrinkRatio = 4

// gcLocked drops terminal jobs whose TTL elapsed. order is append-only in
// completion order, so expiry is a prefix scan. Callers hold the mutex.
func (m *jobManager) gcLocked(now time.Time) {
	i := 0
	for ; i < len(m.order); i++ {
		if now.Sub(m.order[i].finished) <= m.ttl {
			break
		}
		delete(m.jobs, m.order[i].id)
	}
	if i == 0 {
		return
	}
	m.order = append([]*job(nil), m.order[i:]...)
	if len(m.jobs)*jobsShrinkRatio <= m.jobsPeak {
		jobs := make(map[string]*job, len(m.jobs))
		for id, j := range m.jobs {
			jobs[id] = j
		}
		m.jobs, m.jobsPeak = jobs, len(jobs)
	}
}

// status snapshots one job as its wire representation.
func (m *jobManager) status(j *job, now time.Time) JobStatusResponse {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := JobStatusResponse{
		ID:      j.id,
		State:   string(j.state),
		Deduped: j.deduped,
		Error:   j.errMsg,
		Result:  j.result,
	}
	switch {
	case j.state == JobQueued:
		resp.QueueMS = ms(now.Sub(j.created))
	case j.state == JobRunning:
		resp.QueueMS = ms(j.started.Sub(j.created))
		resp.RunMS = ms(now.Sub(j.started))
	case j.state.terminal():
		// A coalesced follower never ran itself; its whole latency is
		// queue time against the leader's solve.
		start := j.started
		if start.IsZero() {
			start = j.finished
		}
		resp.QueueMS = ms(start.Sub(j.created))
		resp.RunMS = ms(j.finished.Sub(start))
	}
	return resp
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// snapshot captures the tier's counters for /metrics.
func (m *jobManager) snapshot(workers int) JobsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return JobsSnapshot{
		Queued:        m.queuedTotal,
		Deduped:       m.dedupedTotal,
		Requeued:      m.requeuedTotal,
		QueueDepth:    len(m.queue),
		QueueCapacity: cap(m.queue),
		Workers:       workers,
		Running:       m.running,
		Done:          m.doneTotal,
		Failed:        m.failedTotal,
		Degraded:      m.degradedTotal,
		Live:          len(m.jobs),
	}
}

// drain stops accepting submissions, lets the workers finish every
// already-queued job, and waits for them up to ctx. Idempotent.
func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("job drain: %w", ctx.Err())
	}
}

// jobWorker is one worker-pool goroutine: it drains the queue until drain
// closes it. A panicking solve fails the job, never the process.
func (s *Server) jobWorker() {
	defer s.jobs.wg.Done()
	for j := range s.jobs.queue {
		s.runJob(j)
	}
}

// runJob executes one leader job under the server's job budget, which
// starts when a worker dequeues it. A panicking solve fails the job (and
// every follower waiting on it) with the panic as its error.
func (s *Server) runJob(j *job) {
	s.jobs.start(j, time.Now())
	ctx, cancel := withBudget(context.Background(), s.budget(j.req.TimeoutMS))
	defer cancel()
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.panicked()
			s.jobs.finish(j, time.Now(), nil, 0, fmt.Sprintf("internal error: %v", rec))
		}
	}()
	resp, faults, err := s.solveForm(ctx, j)
	if err != nil {
		s.jobs.finish(j, time.Now(), nil, 0, err.Error())
		return
	}
	s.jobs.finish(j, time.Now(), resp, faults, "")
}

// submitForm is the front half of both formation routes: decode and
// validate the request, build its scenario, resolve its engine once, and
// submit the job to the FSM. On failure it has written the reply — 400 or
// 413 for a bad request, 429 + Retry-After on a full queue, 503 while
// draining — and returns nil.
func (s *Server) submitForm(w http.ResponseWriter, r *http.Request, pollable bool) *job {
	var req FormRequest
	if !s.decodeJSON(w, r, &req) {
		return nil
	}
	sc, rule, err := buildFormRequest(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	sc, eng, scKey := s.engineFor(sc)
	j := &job{key: jobKey(scKey, rule, &req), sc: sc, eng: eng, rule: rule, req: req}
	switch err := s.jobs.submit(time.Now(), j, pollable); {
	case errors.Is(err, errQueueFull):
		s.metrics.shedded()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "job queue full; retry later")
		return nil
	case errors.Is(err, errJobsClosed):
		writeError(w, http.StatusServiceUnavailable, "server draining; submit elsewhere")
		return nil
	}
	return j
}

// handleJobSubmit accepts a VO-formation job and returns 202 with the id
// to poll — the job is either enqueued or coalesced onto an identical
// in-flight one.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	j := s.submitForm(w, r, true)
	if j == nil {
		return
	}
	snap := s.jobs.snapshot(s.cfg.JobWorkers)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, JobSubmitResponse{
		ID:         j.id,
		State:      string(JobQueued),
		Deduped:    j.deduped,
		QueueDepth: snap.QueueDepth,
	})
}

// handleJobGet polls a job, optionally long-polling: ?wait=2s (or a bare
// integer, milliseconds) blocks until the job reaches a terminal state,
// the wait elapses, or the client disconnects — then reports whatever
// state the job is in. 200 either way; the FSM state is in the body.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown or expired job id")
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := parseWait(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if wait > s.cfg.MaxLongPoll {
			wait = s.cfg.MaxLongPoll
		}
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-j.done:
			case <-t.C:
			case <-r.Context().Done():
			}
			t.Stop()
		}
	}
	writeJSON(w, http.StatusOK, s.jobs.status(j, time.Now()))
}

// parseWait reads a long-poll budget: a Go duration ("500ms", "2s") or a
// bare non-negative integer interpreted as milliseconds.
func parseWait(s string) (time.Duration, error) {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		if n < 0 {
			return 0, fmt.Errorf("negative wait %d", n)
		}
		return time.Duration(n) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q (want a duration like 2s or milliseconds)", s)
	}
	return d, nil
}
