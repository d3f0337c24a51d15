package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"gridvo"
	"gridvo/internal/assign"
	"gridvo/internal/mechanism"
)

// gatedSolver blocks every solve until gate closes, then delegates to the
// real branch-and-bound — deterministic fuel for "job is running / queued"
// states without sleeps.
func gatedSolver(gate <-chan struct{}) assign.Solver {
	return assign.SolverFunc(func(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
		<-gate
		return assign.SolveCtx(ctx, in, opts)
	})
}

// panickingSolver panics on the first solve — the worker-containment case.
func panickingSolver() assign.Solver {
	return assign.SolverFunc(func(ctx context.Context, in *assign.Instance, opts assign.Options) assign.Solution {
		panic("solver exploded")
	})
}

// pollJob GETs the job until pred holds or the deadline elapses.
func pollJob(t *testing.T, url, id string, pred func(JobStatusResponse) bool) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatusResponse
		if code := getJSON(t, url+"/v1/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func terminal(st JobStatusResponse) bool {
	return JobState(st.State).terminal()
}

func submitJob(t *testing.T, url string, req FormRequest) JobSubmitResponse {
	t.Helper()
	code, data := postJSON(t, url+"/v1/jobs", req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d: %s", code, data)
	}
	var resp JobSubmitResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" {
		t.Fatal("submit returned no job id")
	}
	return resp
}

// TestJobSubmitPollDone walks the happy path and checks the async result
// is bitwise-identical to the synchronous path's on the same request.
func TestJobSubmitPollDone(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := mechanism.SampleSpec(7)
	req := FormRequest{Scenario: *spec, Seed: 7}

	sub := submitJob(t, ts.URL, req)
	if sub.Deduped {
		t.Fatal("first submission marked deduped")
	}
	st := pollJob(t, ts.URL, sub.ID, terminal)
	if st.State != string(JobDone) {
		t.Fatalf("state %s (error %q), want done", st.State, st.Error)
	}
	if st.Result == nil || !st.Result.Feasible {
		t.Fatalf("done job carries no feasible result: %+v", st.Result)
	}
	// One engine-cache lookup per formation: the cold job misses once and
	// the worker reuses the engine resolved at submit.
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.EngineCache.Misses != 1 || snap.EngineCache.Hits != 0 {
		t.Fatalf("engine_cache misses/hits = %d/%d, want 1/0",
			snap.EngineCache.Misses, snap.EngineCache.Hits)
	}

	// The sync path on a second server (fresh engine — no shared cache
	// state) must agree bitwise on every solution field.
	_, ts2 := newTestServer(t, Config{})
	code, data := postJSON(t, ts2.URL+"/v1/vo/form", req)
	if code != http.StatusOK {
		t.Fatalf("sync status %d: %s", code, data)
	}
	var sync FormResponse
	if err := json.Unmarshal(data, &sync); err != nil {
		t.Fatal(err)
	}
	job := st.Result
	//gridvolint:ignore floatcmp job-vs-sync results must agree bitwise, not within epsilon
	same := job.Payoff == sync.Payoff && job.Value == sync.Value &&
		job.Cost == sync.Cost && job.AvgReputation == sync.AvgReputation
	if !same {
		t.Fatalf("job result diverged from sync: %+v vs %+v", job, sync)
	}
	if fmt.Sprint(job.Members) != fmt.Sprint(sync.Members) ||
		fmt.Sprint(job.Assignment) != fmt.Sprint(sync.Assignment) ||
		fmt.Sprint(job.GlobalReputation) != fmt.Sprint(sync.GlobalReputation) {
		t.Fatalf("job solution diverged from sync: %+v vs %+v", job, sync)
	}
}

// waitJobs polls the job manager until pred holds on its counters.
func waitJobs(t *testing.T, s *Server, pred func(JobsSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred(s.jobs.snapshot(s.cfg.JobWorkers)) {
		if time.Now().After(deadline) {
			t.Fatalf("job counters stuck at %+v", s.jobs.snapshot(s.cfg.JobWorkers))
		}
		time.Sleep(time.Millisecond)
	}
}

// formVia starts one formation, through POST /v1/vo/form when sync is
// set, else through POST /v1/jobs. The returned func blocks until the
// formation is terminal and returns its result; a sync request's status
// must be 200 and a job must end done.
func formVia(t *testing.T, url string, req FormRequest, sync bool) func() *FormResponse {
	t.Helper()
	if !sync {
		sub := submitJob(t, url, req)
		return func() *FormResponse {
			st := pollJob(t, url, sub.ID, terminal)
			if st.State != string(JobDone) {
				t.Fatalf("job %s ended %s, want done", sub.ID, st.State)
			}
			return st.Result
		}
	}
	type reply struct {
		code int
		data []byte
	}
	body := jsonBody(t, req)
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url+"/v1/vo/form", "application/json", body)
		if err != nil {
			done <- reply{data: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		done <- reply{resp.StatusCode, data}
	}()
	return func() *FormResponse {
		r := <-done
		if r.code != http.StatusOK {
			t.Fatalf("sync form: want 200, got %d: %s", r.code, r.data)
		}
		var fr FormResponse
		if err := json.Unmarshal(r.data, &fr); err != nil {
			t.Fatal(err)
		}
		return &fr
	}
}

// TestJobDedupe coalesces two identical formations onto one solve, for
// every pairing of the sync and job routes: the follower consumes no
// queue slot, runs no solver, and gets the leader's result — equal bytes
// apart from duration_ms.
func TestJobDedupe(t *testing.T) {
	for _, tc := range []struct {
		name             string
		syncLead, syncFo bool
	}{
		{"jobs", false, false},
		{"sync", true, true},
		{"job then sync", false, true},
		{"sync then job", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{JobWorkers: 1})
			gate := make(chan struct{})
			var once sync.Once
			release := func() { once.Do(func() { close(gate) }) }
			t.Cleanup(release) // a failed check must not leave the solve blocked
			spec := mechanism.SampleSpec(3)
			registerEngine(t, s, spec, 3, gatedSolver(gate))
			req := FormRequest{Scenario: *spec, Seed: 3}

			lead := formVia(t, ts.URL, req, tc.syncLead)
			waitJobs(t, s, func(js JobsSnapshot) bool { return js.Queued == 1 })
			if !tc.syncFo {
				follow := submitJob(t, ts.URL, req)
				if !follow.Deduped {
					t.Fatal("identical in-flight submission not deduped")
				}
				release()
				leadRes := lead()
				st := pollJob(t, ts.URL, follow.ID, terminal)
				if st.State != string(JobDone) {
					t.Fatalf("follower ended %s, want done", st.State)
				}
				compareDeduped(t, s, ts.URL, leadRes, st.Result)
				return
			}
			follow := formVia(t, ts.URL, req, true)
			waitJobs(t, s, func(js JobsSnapshot) bool { return js.Deduped == 1 })
			release()
			compareDeduped(t, s, ts.URL, lead(), follow())
		})
	}
}

// compareDeduped checks a coalesced pair: one underlying solve, equal
// results apart from duration_ms, and the job counters of one leader and
// one follower.
func compareDeduped(t *testing.T, s *Server, url string, lead, follow *FormResponse) {
	t.Helper()
	// One underlying solve: the follower's engine stats are the leader's,
	// verbatim, and the process-wide totals contain exactly the leader's
	// solves (a second real run would have added cache hits at least).
	if follow.Engine != lead.Engine {
		t.Fatalf("follower re-solved: %+v vs %+v", follow.Engine, lead.Engine)
	}
	a, b := *lead, *follow
	a.DurationMS, b.DurationMS = 0, 0
	if ja, jb := mustJSON(t, a), mustJSON(t, b); !bytes.Equal(ja, jb) {
		t.Fatalf("coalesced results differ:\n%s\n%s", ja, jb)
	}
	var snap MetricsSnapshot
	if code := getJSON(t, url+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.Jobs.Deduped != 1 || snap.Jobs.Queued != 1 || snap.Jobs.Done != 2 {
		t.Fatalf("job counters off: %+v", snap.Jobs)
	}
	if snap.Engine.Solves != lead.Engine.Solves {
		t.Fatalf("process solves %d != leader's %d: dedupe ran a second solve",
			snap.Engine.Solves, lead.Engine.Solves)
	}
}

// TestJobQueueFull429 fills the one-slot queue behind a blocked worker and
// expects the overflow submission to shed with 429 + Retry-After.
func TestJobQueueFull429(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 1})
	gate := make(chan struct{})
	defer close(gate)
	spec := mechanism.SampleSpec(4)
	registerEngine(t, s, spec, 4, gatedSolver(gate))

	// Distinct timeout_ms values keep the dedupe keys distinct while every
	// job still resolves to the same (gated) engine.
	running := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 4, TimeoutMS: 60000})
	pollJob(t, ts.URL, running.ID, func(st JobStatusResponse) bool {
		return st.State == string(JobRunning)
	})
	submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 4, TimeoutMS: 59000})

	var buf = FormRequest{Scenario: *spec, Seed: 4, TimeoutMS: 58000}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", jsonBody(t, buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: want 429, got %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// A sync formation is admitted by the same queue and sheds the same way.
	syncResp, err := http.Post(ts.URL+"/v1/vo/form", "application/json",
		jsonBody(t, FormRequest{Scenario: *spec, Seed: 4, TimeoutMS: 57000}))
	if err != nil {
		t.Fatal(err)
	}
	defer syncResp.Body.Close()
	if syncResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow sync form: want 429, got %d", syncResp.StatusCode)
	}
	if syncResp.Header.Get("Retry-After") == "" {
		t.Fatal("sync 429 without Retry-After")
	}
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if snap.ShedTotal != 2 {
		t.Fatalf("shed_total = %d, want 2 (one job submit, one sync form)", snap.ShedTotal)
	}
}

// TestJobWorkerPanicFailsJobOnly panics inside a worker's solve and checks
// the job fails while the process keeps serving.
func TestJobWorkerPanicFailsJobOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	spec := mechanism.SampleSpec(5)
	registerEngine(t, s, spec, 5, panickingSolver())

	sub := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 5})
	st := pollJob(t, ts.URL, sub.ID, terminal)
	if st.State != string(JobFailed) {
		t.Fatalf("state %s, want failed", st.State)
	}
	if st.Error == "" {
		t.Fatal("failed job carries no error")
	}
	// The worker survived: a fresh (clean) job on the same server runs.
	clean := mechanism.SampleSpec(6)
	sub2 := submitJob(t, ts.URL, FormRequest{Scenario: *clean, Seed: 6})
	if st2 := pollJob(t, ts.URL, sub2.ID, terminal); st2.State != string(JobDone) {
		t.Fatalf("post-panic job state %s, want done", st2.State)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz %d after worker panic", code)
	}
}

// TestJobLongPoll exercises ?wait=: a short wait returns a non-terminal
// state; after the gate opens, a long wait returns the terminal state in
// one round trip; malformed waits are 400.
func TestJobLongPoll(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1})
	gate := make(chan struct{})
	spec := mechanism.SampleSpec(8)
	registerEngine(t, s, spec, 8, gatedSolver(gate))

	sub := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 8})
	var st JobStatusResponse
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"?wait=30", &st); code != http.StatusOK {
		t.Fatalf("short wait status %d", code)
	}
	if JobState(st.State).terminal() {
		t.Fatalf("gated job already terminal: %s", st.State)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"?wait=8s", &st); code != http.StatusOK {
		t.Fatalf("long wait status %d", code)
	}
	if !JobState(st.State).terminal() {
		t.Fatalf("long poll returned non-terminal %s", st.State)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sub.ID+"?wait=banana", nil); code != http.StatusBadRequest {
		t.Fatalf("bad wait: want 400, got %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: want 404, got %d", code)
	}
}

// TestJobDrainCompletesQueued starts a drain with one job running and one
// queued, expects new submissions to 503, and both existing jobs to
// complete before drain returns.
func TestJobDrainCompletesQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 4})
	gate := make(chan struct{})
	spec := mechanism.SampleSpec(9)
	registerEngine(t, s, spec, 9, gatedSolver(gate))

	running := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 9, TimeoutMS: 60000})
	pollJob(t, ts.URL, running.ID, func(st JobStatusResponse) bool {
		return st.State == string(JobRunning)
	})
	queued := submitJob(t, ts.URL, FormRequest{Scenario: *spec, Seed: 9, TimeoutMS: 59000})

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.DrainJobs(ctx)
	}()
	// Draining: new submissions are refused with 503.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			jsonBody(t, FormRequest{Scenario: *spec, Seed: 9, TimeoutMS: 58000}))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining server still accepts submissions (%d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{running.ID, queued.ID} {
		if st := pollJob(t, ts.URL, id, terminal); st.State != string(JobDone) {
			t.Fatalf("job %s drained into %s, want done", id, st.State)
		}
	}
}

// TestJobFaultTouchedNeverShared drives the manager directly: a leader
// whose run was fault-touched must not share its result — the first
// follower is promoted and re-enqueued for a fresh solve.
func TestJobFaultTouchedNeverShared(t *testing.T) {
	m := newJobManager(4, time.Minute)
	now := time.Unix(0, 0)
	req := FormRequest{Seed: 1}
	lead := &job{key: 42, rule: gridvo.TVOF, req: req}
	if err := m.submit(now, lead, true); err != nil {
		t.Fatal(err)
	}
	f1 := &job{key: 42, rule: gridvo.TVOF, req: req}
	if err := m.submit(now, f1, true); err != nil || !f1.deduped {
		t.Fatalf("follower not deduped: %v", err)
	}
	f2 := &job{key: 42, rule: gridvo.TVOF, req: req}
	if err := m.submit(now, f2, false); err != nil || !f2.deduped {
		t.Fatalf("second follower not deduped: %v", err)
	}
	<-m.queue // worker would have dequeued the leader
	m.start(lead, now)

	tainted := &FormResponse{Feasible: true, Degraded: true}
	m.finish(lead, now, tainted, 3, "") // 3 injected faults fired
	if lead.state != JobDegraded {
		t.Fatalf("leader state %s, want degraded", lead.state)
	}
	// f1 was promoted to a fresh leader, f2 re-attached to it; neither got
	// the tainted result.
	if f1.state.terminal() || f1.result != nil {
		t.Fatalf("promoted follower inherited tainted result: %s %v", f1.state, f1.result)
	}
	if f2.state.terminal() || f2.result != nil {
		t.Fatalf("re-attached follower inherited tainted result: %s %v", f2.state, f2.result)
	}
	requeued := <-m.queue
	if requeued != f1 {
		t.Fatalf("re-enqueued job is %v, want promoted follower %v", requeued.id, f1.id)
	}
	m.start(f1, now)
	clean := &FormResponse{Feasible: true}
	m.finish(f1, now, clean, 0, "")
	if f1.state != JobDone || f2.state != JobDone {
		t.Fatalf("clean retry states %s / %s, want done", f1.state, f2.state)
	}
	if f2.result != clean {
		t.Fatal("follower did not share the clean retry result")
	}
	snap := m.snapshot(1)
	if snap.Deduped != 2 || snap.Requeued != 1 {
		t.Fatalf("counters off: %+v", snap)
	}
}

// TestJobTTLGC expires terminal jobs with explicit clocks — no sleeps.
func TestJobTTLGC(t *testing.T) {
	m := newJobManager(4, time.Minute)
	t0 := time.Unix(0, 0)
	j := &job{key: 1, rule: gridvo.TVOF}
	if err := m.submit(t0, j, true); err != nil {
		t.Fatal(err)
	}
	<-m.queue
	m.start(j, t0)
	m.finish(j, t0, &FormResponse{Feasible: true}, 0, "")
	if m.get(j.id) == nil {
		t.Fatal("terminal job GC'd before TTL")
	}
	// A sync request's job is never registered, so the registry does not
	// hold its result for the TTL.
	sj := &job{key: 3, rule: gridvo.TVOF}
	if err := m.submit(t0, sj, false); err != nil {
		t.Fatal(err)
	}
	<-m.queue
	m.start(sj, t0)
	m.finish(sj, t0, &FormResponse{Feasible: true}, 0, "")
	if sj.id != "" || len(m.jobs) != 1 || len(m.order) != 1 {
		t.Fatalf("sync job registered: id %q, %d jobs, %d awaiting GC", sj.id, len(m.jobs), len(m.order))
	}
	// A later submit triggers the lazy GC sweep past the TTL.
	if err := m.submit(t0.Add(2*time.Minute), &job{key: 2, rule: gridvo.TVOF, req: FormRequest{Seed: 2}}, true); err != nil {
		t.Fatal(err)
	}
	if m.get(j.id) != nil {
		t.Fatal("expired job still pollable after TTL")
	}
}

// TestJobRegistryShrinksAfterBurst: once a burst of pollable jobs has
// expired, the next submit's GC sweep rebuilds the registry map, so the
// manager's retained heap returns near an empty manager's instead of
// pinning the burst's buckets.
func TestJobRegistryShrinksAfterBurst(t *testing.T) {
	const burst = 50_000
	t0 := time.Unix(0, 0)
	retained := func(fill func(m *jobManager)) int64 {
		with := func() int64 {
			m := newJobManager(1, time.Second)
			fill(m)
			h := liveHeap()
			runtime.KeepAlive(m)
			return h
		}()
		return with - liveHeap()
	}
	// After the burst, and for the baseline, one job submitted past the
	// burst's TTL stays registered.
	last := func(m *jobManager) {
		if err := m.submit(t0.Add(time.Minute), &job{key: 2, rule: gridvo.TVOF}, true); err != nil {
			t.Fatal(err)
		}
	}
	empty := retained(last)
	afterBurst := retained(func(m *jobManager) {
		// One leader and burst-1 coalesced followers: every job is
		// registered but only the leader takes the queue's one slot.
		lead := &job{key: 1, rule: gridvo.TVOF}
		for i := 0; i < burst; i++ {
			j := lead
			if i > 0 {
				j = &job{key: 1, rule: gridvo.TVOF}
			}
			if err := m.submit(t0, j, true); err != nil {
				t.Fatal(err)
			}
		}
		<-m.queue
		m.start(lead, t0)
		m.finish(lead, t0, &FormResponse{Feasible: true}, 0, "")
		if got := m.snapshot(1).Live; got != burst {
			t.Fatalf("%d live jobs after the burst, want %d", got, burst)
		}
		last(m)
		if got := m.snapshot(1).Live; got != 1 {
			t.Fatalf("%d live jobs after the TTL, want 1", got)
		}
	})
	if afterBurst-empty > 256<<10 {
		t.Fatalf("manager retains %d bytes after an expired %d-job burst, an empty one %d", afterBurst, burst, empty)
	}
}

// liveHeap collects garbage and returns the bytes of live heap.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func jsonBody(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	return bytes.NewReader(mustJSON(t, v))
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
