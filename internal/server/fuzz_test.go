package server

import (
	"testing"
	"time"
)

// FuzzSolveRequest covers the service's request decoder end to end:
// ParseSolveRequest (strict JSON framing) followed by buildSpec
// (formula parsing, mode/strategy validation, budget clamping). The
// decoder is the one part of the server that chews on raw network bytes,
// so it must never panic, and everything it accepts must be a spec the
// workers can run: a validated formula, a known mode, and budgets inside
// the server caps.
//
// Run with: go test -fuzz=FuzzSolveRequest ./internal/server/
// Regression corpus: testdata/fuzz/FuzzSolveRequest/ (replayed by plain
// go test).
func FuzzSolveRequest(f *testing.F) {
	seeds := []string{
		``,
		`{}`,
		`{"formula":"p cnf 1 1\ne 1 0\n1 0\n"}`,
		`{"formula":"p cnf 1 1\ne 1 0\n1 0\n","mode":"to","strategy":"ed-ad"}`,
		`{"formula":"p cnf 1 1\ne 1 0\n1 0\n","mode":"portfolio","witness":true}`,
		`{"formula":"p qtree 7 3\nq e 1 0\nq a 2 0\nq e 3 4 0\nu 2\nq a 5 0\nq e 6 7 0\nu 3\n1 3 4 0\n2 -3 0\n1 6 -7 0\n","mode":"po"}`,
		`{"formula":"p cnf 1 1\ne 1 0\n1 0\n","max_time_ms":100,"max_nodes":10,"max_mem_mb":1}`,
		`{"formula":"p cnf 1 1\ne 1 0\n1 0\n","max_nodes":-3}`,
		`{"formula":"x","typo_field":1}`,
		`{"formula":"x"} trailing`,
		`[{"formula":"x"}]`,
		`{"formula":123}`,
		`{"formula":"x","max_time_ms":9223372036854775807}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	caps := Caps{MaxTime: time.Second, MaxNodes: 1000, MaxMem: 1 << 20}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseSolveRequest(body)
		if err != nil {
			return
		}
		if req == nil {
			t.Fatal("nil request without error")
		}
		spec, err := buildSpec(req, caps)
		if err != nil {
			return
		}
		if spec == nil {
			t.Fatal("nil spec without error")
		}
		if spec.q == nil {
			t.Fatalf("spec without formula: %+v", req)
		}
		if verr := spec.q.Validate(); verr != nil {
			t.Fatalf("accepted formula fails validation: %v\nrequest: %+v", verr, req)
		}
		switch spec.mode {
		case "po", "to":
		default:
			t.Fatalf("accepted unknown mode %q", spec.mode)
		}
		if spec.key == "" {
			t.Fatalf("spec without breaker key: %+v", req)
		}
		// Budgets must be clamped inside the caps: a spec that escapes
		// them lets one request reserve more of the shared process than
		// the operator allowed.
		if spec.opt.TimeLimit <= 0 || spec.opt.TimeLimit > caps.MaxTime {
			t.Fatalf("time budget %v escapes cap %v", spec.opt.TimeLimit, caps.MaxTime)
		}
		if spec.opt.NodeLimit <= 0 || spec.opt.NodeLimit > caps.MaxNodes {
			t.Fatalf("node budget %d escapes cap %d", spec.opt.NodeLimit, caps.MaxNodes)
		}
		if spec.opt.MemLimit <= 0 || spec.opt.MemLimit > caps.MaxMem {
			t.Fatalf("memory budget %d escapes cap %d", spec.opt.MemLimit, caps.MaxMem)
		}
	})
}
