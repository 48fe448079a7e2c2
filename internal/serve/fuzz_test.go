package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"carf"
)

// FuzzSubmitRequest feeds arbitrary bytes to the POST /api/v1/runs body
// parser the way submit does: decoding and validation must never panic,
// and a request validate accepts must name exactly one known experiment
// or kernel and carry a configuration carf accepts.
func FuzzSubmitRequest(f *testing.F) {
	for _, seed := range []string{
		`{"experiment":"table2","scale":0.04}`,
		`{"kernel":"qsort","organization":"content-aware","dplusn":4,"short_regs":16,"long_regs":8,"scale":0.5}`,
		`{"kernel":"qsort","organization":"baseline","dplusn":-3}`,
		`{"kernel":"qsort","organization":"bogus"}`,
		`{"experiment":"table2","kernel":"qsort"}`,
		`{"experiment":"table2","organization":"bogus","scale":-1}`,
		`{"kernel":"crc64","scale":1e308}`,
		`{"experiment":"fig5"} trailing`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) != nil {
			return
		}
		kind, err := req.validate()
		if err != nil {
			return
		}
		if err := req.config().Validate(); err != nil {
			t.Fatalf("validate accepted %+v, but its config fails: %v", req, err)
		}
		switch kind {
		case "experiment":
			if req.Kernel != "" || carf.DescribeExperiment(req.Experiment) == "" {
				t.Fatalf("accepted as an experiment: %+v", req)
			}
		case "kernel":
			if req.Experiment != "" || !knownKernel(req.Kernel) {
				t.Fatalf("accepted as a kernel: %+v", req)
			}
		default:
			t.Fatalf("validate accepted %+v with kind %q", req, kind)
		}
	})
}

func knownKernel(name string) bool {
	for _, k := range carf.Kernels() {
		if k == name {
			return true
		}
	}
	return false
}
