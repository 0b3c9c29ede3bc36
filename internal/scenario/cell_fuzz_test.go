package scenario

import (
	"bytes"
	"encoding/json"
	"testing"

	"locallab/internal/solver"
)

// FuzzCellRequestValidate fuzzes the serving layer's admission path:
// arbitrary JSON decoded into a CellRequest (with the HTTP handler's
// strict decoding) and validated must never panic — it either rejects
// with an error or accepts a request the registries fully resolve. The
// seed corpus covers every pinned validation message plus the accepted
// shape (see TestCellRequestValidateMessages).
func FuzzCellRequestValidate(f *testing.F) {
	seeds := []string{
		`{"family":"cycle","n":16,"seed":1}`,
		`{"solver":"cole-vishkin","n":16,"seed":1}`,
		`{"family":"cycle","solver":"nope","n":16,"seed":1}`,
		`{"family":"nope","solver":"cole-vishkin","n":16,"seed":1}`,
		`{"family":"regular","solver":"cole-vishkin","n":16,"seed":1}`,
		`{"family":"cycle","solver":"pi2-det","n":16,"seed":1}`,
		`{"family":"padded","solver":"mis","n":16,"seed":1}`,
		`{"family":"cycle","solver":"cole-vishkin","n":1,"seed":1}`,
		`{"family":"cycle","solver":"mis","n":16,"seed":1,"engine":{"workers":2}}`,
		`{"family":"cycle","solver":"cole-vishkin","n":16,"seed":1,"engine":{"workers":-1}}`,
		`{"family":"cycle","solver":"cole-vishkin","n":64,"seed":1,"engine":{"workers":2,"shards":8}}`,
		`{}`,
		`{"bogus":true}`,
		`null`,
		`[1,2,3]`,
		"{\"family\":\"\\u0000\",\"solver\":\"x\",\"n\":-9223372036854775808,\"seed\":9223372036854775807}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req CellRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return // malformed JSON never reaches admission
		}
		if err := req.Validate(); err != nil {
			if err.Error() == "" {
				t.Fatal("validation error with empty message")
			}
			return
		}
		// Accepted requests must be fully resolvable: the worker pool
		// relies on validation as its only admission gate.
		if _, ok := solver.ByName(req.Solver); !ok {
			t.Fatalf("accepted request with unresolvable solver %q", req.Solver)
		}
	})
}
