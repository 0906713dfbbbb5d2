package jobs

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chameleon/internal/gen"
	"chameleon/internal/uncertain"
)

// testGraph builds a small deterministic uncertain graph.
func testGraph(t *testing.T, nodes int, seed uint64) *uncertain.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(nodes, 2, gen.UniformProbs(0.2, 0.9), rand.New(rand.NewPCG(seed, 0)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// v1Bytes hand-encodes g in the legacy v1 binary layout — magic, version
// 1, n and m, then (u, v, float64 bits) per edge in sorted order, all
// little-endian — which uploads and spools from earlier builds hold.
// Nothing in the program writes v1 any more; the readers still must.
func v1Bytes(g *uncertain.Graph) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, 0x55475247) // "UGRG"
	b = le.AppendUint32(b, 1)
	b = le.AppendUint32(b, uint32(g.NumNodes()))
	b = le.AppendUint32(b, uint32(g.NumEdges()))
	for _, e := range g.SortedEdges() {
		b = le.AppendUint32(b, uint32(e.U))
		b = le.AppendUint32(b, uint32(e.V))
		b = le.AppendUint64(b, math.Float64bits(e.P))
	}
	return b
}

func TestStoreCreatePersistRecover(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	g := testGraph(t, 30, 1)
	spec := Spec{K: 3, Epsilon: 0.1, Seed: 5}
	t0 := time.Now().Truncate(time.Second)
	j1, err := st.Create(spec, g, t0)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := st.Create(spec, g, t0.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID == j2.ID {
		t.Fatalf("job IDs collide: %s", j1.ID)
	}
	if j1.State != StateQueued || j1.Nodes != 30 || j1.Edges != g.NumEdges() {
		t.Fatalf("created job = %+v", j1)
	}

	// The stored input must reproduce the submitted graph bit for bit —
	// the checkpoint machinery hashes it on resume.
	back, err := st.LoadInput(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("input round-trip lost edges: %d vs %d", back.NumEdges(), g.NumEdges())
	}
	for _, e := range g.SortedEdges() {
		p, err := back.Prob(e.U, e.V)
		if err != nil || p != e.P {
			t.Fatalf("edge (%d,%d): stored p=%v err=%v, want exactly %v", e.U, e.V, p, err, e.P)
		}
	}

	// State transitions persist and recover in submission order.
	j2.State = StateRunning
	if err := st.Persist(j2); err != nil {
		t.Fatal(err)
	}
	st.Event(t0, j1.ID, "submitted", "")
	st.Event(t0.Add(time.Second), j2.ID, "started", "")

	// Junk in the spool is skipped, not fatal: a bare file, a dir without
	// state.json, and a dir whose record names a different job.
	os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644)
	os.MkdirAll(filepath.Join(dir, "half-created"), 0o755)
	os.MkdirAll(filepath.Join(dir, "wrong-id"), 0o755)
	os.WriteFile(filepath.Join(dir, "wrong-id", "state.json"), []byte(`{"id":"elsewhere"}`), 0o644)

	jobs, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != j1.ID || jobs[1].ID != j2.ID {
		t.Fatalf("recovery order = %s, %s; want %s, %s", jobs[0].ID, jobs[1].ID, j1.ID, j2.ID)
	}
	if jobs[1].State != StateRunning {
		t.Fatalf("recovered j2 state = %s, want running", jobs[1].State)
	}

	// The event journal replays (and skips a torn tail line).
	f, _ := os.OpenFile(filepath.Join(dir, "jobs.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	f.WriteString(`{"at":"2026-`) // torn write, as after a crash
	f.Close()
	evs, err := ReadEvents(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Event != "submitted" || evs[1].Event != "started" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestStoreWriteResultRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := testGraph(t, 25, 2)
	job, err := st.Create(Spec{K: 3, Epsilon: 0.1}, g, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteResult(job.ID, g); err != nil {
		t.Fatal(err)
	}
	back, err := uncertain.LoadFile(st.ResultPath(job.ID))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("result round-trip: %d/%d, want %d/%d",
			back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

func TestStoreRequiresDir(t *testing.T) {
	if _, err := NewStore(""); err == nil {
		t.Fatal("NewStore(\"\") should fail")
	}
}
