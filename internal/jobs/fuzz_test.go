package jobs

import (
	"bytes"
	"mime/multipart"
	"testing"

	"chameleon/internal/uncertain"
)

// FuzzJobRequest fuzzes the submission decoder over arbitrary content
// types and bodies: malformed JSON, hostile multipart framing, truncated
// binary uploads. The contract under test is the one the HTTP layer
// relies on: ParseSubmission never panics, never admits an invalid spec,
// and never returns a graph that failed to decode.
func FuzzJobRequest(f *testing.F) {
	// JSON route seeds.
	f.Add("application/json", []byte(`{"k": 4, "eps": 0.05, "graph_path": "/data/g.tsv"}`))
	f.Add("application/json", []byte(`{"k": 1}`))
	f.Add("application/json", []byte(`{`))
	f.Add("application/json", []byte(`{"k": 4, "eps": 0.05, "graph_path": "g"} trailing`))
	f.Add("text/plain", []byte("not a submission"))
	f.Add("", []byte{})

	// Multipart seeds: well-formed submissions with a TSV, a legacy v1
	// and a v2 binary graph, and truncated binary uploads.
	g := uncertain.New(4)
	g.MustAddEdge(0, 1, 0.5)
	g.MustAddEdge(1, 2, 0.25)
	g.MustAddEdge(2, 3, 1)
	v1 := v1Bytes(g)
	var v2 bytes.Buffer
	if err := uncertain.WriteBinaryV2(&v2, g); err != nil {
		f.Fatal(err)
	}
	part := func(spec, graph []byte) (string, []byte) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		if spec != nil {
			fw, _ := mw.CreateFormField("spec")
			fw.Write(spec)
		}
		if graph != nil {
			fw, _ := mw.CreateFormFile("graph", "g")
			fw.Write(graph)
		}
		mw.Close()
		return mw.FormDataContentType(), buf.Bytes()
	}
	specJSON := []byte(`{"k": 2, "eps": 0.1}`)
	for _, graph := range [][]byte{
		[]byte("4\n0\t1\t0.5\n"),
		v1,
		v2.Bytes(),
		v2.Bytes()[:len(v2.Bytes())/2], // truncated v2 container
		v1[:6],                         // magic but no header
	} {
		ct, body := part(specJSON, graph)
		f.Add(ct, body)
	}
	ct, body := part(nil, []byte("4\n0\t1\t0.5\n"))
	f.Add(ct, body)
	f.Add("multipart/form-data", []byte("no boundary"))
	f.Add("multipart/form-data; boundary=x", []byte("--x\r\ngarbage"))

	f.Fuzz(func(t *testing.T, contentType string, body []byte) {
		spec, g, err := ParseSubmission(contentType, bytes.NewReader(body))
		if err != nil {
			if spec != nil || g != nil {
				t.Fatalf("error %v alongside a non-nil spec/graph", err)
			}
			return
		}
		// Anything admitted must already satisfy the validated contract.
		if spec == nil {
			t.Fatal("nil spec without an error")
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("admitted spec fails validation: %v (%+v)", verr, spec)
		}
		if g != nil {
			if spec.GraphPath != "" {
				t.Fatal("upload admitted alongside graph_path")
			}
			// The decoded graph must be internally consistent enough to
			// serialize — a corrupted accepted graph would poison the spool.
			var buf bytes.Buffer
			if werr := uncertain.WriteBinaryV2(&buf, g); werr != nil {
				t.Fatalf("admitted graph does not re-serialize: %v", werr)
			}
		} else if spec.GraphPath == "" {
			t.Fatal("JSON submission admitted without a graph_path")
		}
	})
}
