package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"chameleon/internal/core"
	"chameleon/internal/uncertain"
)

// waitDone blocks on a job's completion signal with a test deadline.
func waitDone(t *testing.T, m *Manager, id string) {
	t.Helper()
	ch, err := m.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s never finished", id)
	}
}

// startManager builds a store+manager over a temp spool and starts it.
func startManager(t *testing.T, cfg Config) (*Manager, *Store, context.CancelFunc) {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	m := NewManager(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cancel()
		m.Wait()
		st.Close()
	})
	return m, st, cancel
}

// TestManagerLifecycleDeterminism runs one job through the scheduler and
// checks the published graph is bit-identical to a direct engine run
// with the same parameters — the job plane must add scheduling, not
// noise.
func TestManagerLifecycleDeterminism(t *testing.T) {
	g := testGraph(t, 60, 3)
	spec := Spec{K: 4, Epsilon: 0.05, Samples: 60, Seed: 9}
	m, st, _ := startManager(t, Config{MaxConcurrent: 2, WorkersPerJob: 2})

	job, err := m.Submit(spec, g)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateQueued && job.State != StateRunning {
		t.Fatalf("fresh job state = %s", job.State)
	}
	waitDone(t, m, job.ID)

	stt, err := m.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stt.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", stt.State, stt.Job.Error)
	}
	if stt.EpsilonTilde > spec.Epsilon {
		t.Fatalf("eps~ = %v exceeds eps = %v", stt.EpsilonTilde, spec.Epsilon)
	}
	if stt.Sigma <= 0 {
		t.Fatalf("sigma = %v", stt.Sigma)
	}

	// The σ-search checkpoint must be cleaned up after completion.
	if _, err := os.Stat(st.CheckpointPath(job.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("done job left a checkpoint behind (stat err: %v)", err)
	}

	// Direct engine run on the job's durable input (the spool stores the
	// v2 canonical encoding, whose sorted edge order is what the search
	// actually iterated), same parameters and worker budget.
	durable, err := st.LoadInput(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.AnonymizeContext(context.Background(), durable, core.Params{
		K: spec.K, Epsilon: spec.Epsilon, Samples: spec.Samples, Seed: spec.Seed,
		Workers: 2, Variant: core.RSME,
	})
	if err != nil {
		t.Fatal(err)
	}
	viaJobs, err := uncertain.LoadFile(st.ResultPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := uncertain.WriteBinaryV2(&a, viaJobs); err != nil {
		t.Fatal(err)
	}
	if err := uncertain.WriteBinaryV2(&b, direct.Graph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("job-plane result differs from the direct run (%d vs %d bytes)", a.Len(), b.Len())
	}
	if stt.Sigma != direct.Sigma || stt.EpsilonTilde != direct.EpsilonTilde {
		t.Fatalf("summary differs: job (σ=%v, ε~=%v) direct (σ=%v, ε~=%v)",
			stt.Sigma, stt.EpsilonTilde, direct.Sigma, direct.EpsilonTilde)
	}
}

// TestManagerRecovery simulates a daemon death: a spool holding one job
// marked running (its daemon never finished it) must be re-enqueued by
// Start and driven to done, with the restart counted.
func TestManagerRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := testGraph(t, 40, 4)
	job, err := st.Create(Spec{K: 3, Epsilon: 0.05, Samples: 40, Seed: 2}, g, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	job.State = StateRunning // as a SIGKILLed daemon leaves it
	if err := st.Persist(job); err != nil {
		t.Fatal(err)
	}
	// A corrupt checkpoint must be ignored, not fatal: the job reruns
	// from scratch.
	if err := os.WriteFile(st.CheckpointPath(job.ID), []byte("torn{"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Store: st2, MaxConcurrent: 1, WorkersPerJob: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer func() {
		cancel()
		m.Wait()
		st2.Close()
	}()
	recovered, err := m.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", recovered)
	}
	waitDone(t, m, job.ID)
	stt, err := m.Get(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if stt.State != StateDone {
		t.Fatalf("recovered job finished %s (%s), want done", stt.State, stt.Job.Error)
	}
	if stt.Recovered != 1 {
		t.Fatalf("Recovered = %d, want 1", stt.Recovered)
	}
	if _, err := uncertain.LoadFile(st2.ResultPath(job.ID)); err != nil {
		t.Fatalf("recovered job has no readable result: %v", err)
	}
}

// crashedSpool admits one job into a fresh spool and leaves it as a
// SIGKILLed daemon would: marked running, store closed. It returns the
// spool directory and the job.
func crashedSpool(t *testing.T, spec Spec, g *uncertain.Graph) (string, *Job) {
	t.Helper()
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, err := st.Create(spec, g, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	job.State = StateRunning
	if err := st.Persist(job); err != nil {
		t.Fatal(err)
	}
	st.Close()
	return dir, job
}

// restartSpool starts a one-worker manager over a crashed spool, waits for
// the recovered job to finish done, and returns the store for inspection.
func restartSpool(t *testing.T, dir, id string) *Store {
	t.Helper()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Store: st, MaxConcurrent: 1, WorkersPerJob: 1})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() {
		cancel()
		m.Wait()
		st.Close()
	})
	if recovered, err := m.Start(ctx); err != nil || recovered != 1 {
		t.Fatalf("Start recovered %d jobs (err %v), want 1", recovered, err)
	}
	waitDone(t, m, id)
	stt, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if stt.State != StateDone {
		t.Fatalf("recovered job finished %s (%s), want done", stt.State, stt.Job.Error)
	}
	return st
}

// assertDirectRunBytes checks a finished job's spooled result is
// bit-identical to a one-worker engine run on its durable input — the
// result an uninterrupted run produces.
func assertDirectRunBytes(t *testing.T, st *Store, id string, spec Spec) {
	t.Helper()
	durable, err := st.LoadInput(id)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.AnonymizeContext(context.Background(), durable, core.Params{
		K: spec.K, Epsilon: spec.Epsilon, Samples: spec.Samples, Seed: spec.Seed,
		Workers: 1, Variant: core.RSME,
	})
	if err != nil {
		t.Fatal(err)
	}
	viaJobs, err := uncertain.LoadFile(st.ResultPath(id))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := uncertain.WriteBinaryV2(&a, viaJobs); err != nil {
		t.Fatal(err)
	}
	if err := uncertain.WriteBinaryV2(&b, direct.Graph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("recovered result differs from an uninterrupted run (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestManagerDiscardsUnreadableCheckpoint: a checkpoint LoadCheckpoint
// rejects — torn JSON, an unknown format version, an unknown search phase
// — must not be dropped silently. The job journals checkpoint-discarded
// with the load error and reruns from scratch to the same bytes as an
// uninterrupted run.
func TestManagerDiscardsUnreadableCheckpoint(t *testing.T) {
	spec := Spec{K: 3, Epsilon: 0.05, Samples: 40, Seed: 2}
	cases := map[string]string{
		"torn":          `torn{`,
		"bad version":   fmt.Sprintf(`{"version": %d, "phase": "bisection"}`, core.CheckpointVersion+1),
		"unknown phase": fmt.Sprintf(`{"version": %d, "phase": "warp"}`, core.CheckpointVersion),
	}
	for name, garbage := range cases {
		t.Run(name, func(t *testing.T) {
			dir, job := crashedSpool(t, spec, testGraph(t, 40, 4))
			ckPath := filepath.Join(dir, job.ID, checkpointFile)
			if err := os.WriteFile(ckPath, []byte(garbage), 0o644); err != nil {
				t.Fatal(err)
			}
			st := restartSpool(t, dir, job.ID)
			evs, err := ReadEvents(dir)
			if err != nil {
				t.Fatal(err)
			}
			discarded := false
			for _, ev := range evs {
				if ev.JobID == job.ID && ev.Event == "checkpoint-discarded" && ev.Detail != "" {
					discarded = true
				}
			}
			if !discarded {
				t.Fatalf("no checkpoint-discarded event for %s in %+v", job.ID, evs)
			}
			assertDirectRunBytes(t, st, job.ID, spec)
		})
	}
}

// TestManagerRecoversV1Spool: spools written by earlier builds hold the
// input graph in the legacy v1 encoding. Such a job must still recover,
// decode its input to the submitted graph, and complete bit-identically.
func TestManagerRecoversV1Spool(t *testing.T) {
	spec := Spec{K: 3, Epsilon: 0.05, Samples: 40, Seed: 2}
	g := testGraph(t, 40, 4)
	dir, job := crashedSpool(t, spec, g)
	if err := os.WriteFile(filepath.Join(dir, job.ID, inputFile), v1Bytes(g), 0o644); err != nil {
		t.Fatal(err)
	}
	st := restartSpool(t, dir, job.ID)
	durable, err := st.LoadInput(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !durable.Equal(g) {
		t.Fatal("v1 spool input decoded to a different graph")
	}
	assertDirectRunBytes(t, st, job.ID, spec)
}

// TestManagerAdmissionControl drives the admission gates with a blocked
// worker: beyond the queue depth, Submit must reject with a BusyError
// carrying a positive Retry-After, accepted jobs must all complete once
// released, and the manager must not leak goroutines.
func TestManagerAdmissionControl(t *testing.T) {
	before := runtime.NumGoroutine()

	g := testGraph(t, 30, 5)
	release := make(chan struct{})
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Store: st, MaxConcurrent: 1, QueueDepth: 2, WorkersPerJob: 1})
	m.runFn = func(ctx context.Context, tr *tracked, job Job) (*core.Result, error) {
		select {
		case <-release:
			return &core.Result{Graph: g, EpsilonTilde: 0.01, Sigma: 0.5}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	if _, err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}

	spec := Spec{K: 3, Epsilon: 0.1}
	first, err := m.Submit(spec, g)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker holds the first job, so the queue
	// occupancy below is deterministic.
	deadline := time.Now().Add(30 * time.Second)
	for {
		stt, err := m.Get(first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if stt.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	var accepted []*Job
	accepted = append(accepted, first)
	for i := 0; i < 2; i++ { // fill the queue
		j, err := m.Submit(spec, g)
		if err != nil {
			t.Fatalf("queue slot %d rejected: %v", i, err)
		}
		accepted = append(accepted, j)
	}
	_, err = m.Submit(spec, g) // beyond the depth
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("over-depth submit: err = %v, want BusyError", err)
	}
	if busy.RetryAfter < time.Second {
		t.Fatalf("Retry-After = %v, want >= 1s", busy.RetryAfter)
	}

	close(release)
	for _, j := range accepted {
		waitDone(t, m, j.ID)
		stt, err := m.Get(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if stt.State != StateDone {
			t.Fatalf("accepted job %s finished %s, want done", j.ID, stt.State)
		}
	}

	// A shut-down manager refuses new work.
	cancel()
	m.Wait()
	st.Close()
	if _, err := m.Submit(spec, g); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: err = %v, want ErrShuttingDown", err)
	}

	// No goroutine leak: everything the manager started must be gone.
	leakDeadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestManagerCancel covers both cancellation paths: a queued job is
// cancelled in place, a running one is interrupted.
func TestManagerCancel(t *testing.T) {
	g := testGraph(t, 30, 6)
	release := make(chan struct{})
	defer close(release)
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Store: st, MaxConcurrent: 1, QueueDepth: 4, WorkersPerJob: 1})
	m.runFn = func(ctx context.Context, tr *tracked, job Job) (*core.Result, error) {
		select {
		case <-release:
			return &core.Result{Graph: g, EpsilonTilde: 0.01, Sigma: 0.5}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer func() { cancel(); m.Wait(); st.Close() }()
	if _, err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}

	spec := Spec{K: 3, Epsilon: 0.1}
	running, err := m.Submit(spec, g)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		stt, _ := m.Get(running.ID)
		if stt.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued, err := m.Submit(spec, g)
	if err != nil {
		t.Fatal(err)
	}

	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, queued.ID)
	if stt, _ := m.Get(queued.ID); stt.State != StateCancelled {
		t.Fatalf("queued job after cancel = %s, want cancelled", stt.State)
	}

	if err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, running.ID)
	if stt, _ := m.Get(running.ID); stt.State != StateCancelled {
		t.Fatalf("running job after cancel = %s, want cancelled", stt.State)
	}

	// Terminal jobs refuse further cancellation; unknown IDs 404.
	if err := m.Cancel(running.ID); err == nil || !IsBadRequest(err) {
		t.Fatalf("cancelling a cancelled job: err = %v", err)
	}
	if err := m.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancelling unknown job: err = %v", err)
	}
}

// TestManagerRejectsBadSubmissions checks the graph-dependent admission
// checks surface as bad requests, not queue entries.
func TestManagerRejectsBadSubmissions(t *testing.T) {
	m, _, _ := startManager(t, Config{MaxConcurrent: 1, WorkersPerJob: 1})
	g := testGraph(t, 10, 7)
	if _, err := m.Submit(Spec{K: 50, Epsilon: 0.1}, g); err == nil || !IsBadRequest(err) {
		t.Fatalf("k > |V|: err = %v", err)
	}
	if _, err := m.Submit(Spec{K: 1, Epsilon: 0.1}, g); err == nil || !IsBadRequest(err) {
		t.Fatalf("k < 2: err = %v", err)
	}
	empty := uncertain.New(5)
	if _, err := m.Submit(Spec{K: 3, Epsilon: 0.1}, empty); err == nil || !IsBadRequest(err) {
		t.Fatalf("edgeless graph: err = %v", err)
	}
	if len(m.List()) != 0 {
		t.Fatalf("rejected submissions leaked into the job list: %v", m.List())
	}
}
