package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lineartest"
	"repro/internal/qbf"
)

const tinyTrue = "p cnf 2 2\ne 1 2 0\n1 0\n-2 0\n"
const tinyFalse = "p cnf 1 2\na 1 0\n1 0\n-1 0\n"

// A non-prenex QTREE instance (the paper's running example prefix:
// two universal branches under the root existential).
const tinyTree = `p qtree 7 3
q e 1 0
q a 2 0
q e 3 4 0
u 2
q a 5 0
q e 6 7 0
u 3
1 3 4 0
2 -3 0
1 6 -7 0
`

func TestParseSolveRequest(t *testing.T) {
	req, err := ParseSolveRequest([]byte(`{"formula":"p cnf 1 1\ne 1 0\n1 0\n","max_time_ms":500,"witness":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.MaxTimeMS != 500 || !req.Witness || req.Formula == "" {
		t.Fatalf("misdecoded: %+v", req)
	}
}

func TestParseSolveRequestRejectsUnknownFields(t *testing.T) {
	// A typoed budget field must be an error, not a silently absent budget.
	_, err := ParseSolveRequest([]byte(`{"formula":"x","max_time":500}`))
	if err == nil || !strings.Contains(err.Error(), "max_time") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestParseSolveRequestRejectsTrailingData(t *testing.T) {
	_, err := ParseSolveRequest([]byte(`{"formula":"x"} {"formula":"y"}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing document not rejected: %v", err)
	}
}

func TestParseSolveRequestRejectsGarbage(t *testing.T) {
	if _, err := ParseSolveRequest([]byte(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestBuildSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		req  SolveRequest
		want string // substring of the error
	}{
		{"empty formula", SolveRequest{}, "empty formula"},
		{"bad formula", SolveRequest{Formula: "p cnf oops"}, "parsing formula"},
		{"negative budget", SolveRequest{Formula: tinyTrue, MaxTimeMS: -1}, "negative budget"},
		{"unknown mode", SolveRequest{Formula: tinyTrue, Mode: "magic"}, "unknown mode"},
		{"unknown strategy", SolveRequest{Formula: tinyTrue, Mode: "to", Strategy: "zz"}, "unknown strategy"},
		{"strategy with po", SolveRequest{Formula: tinyTrue, Strategy: "eu-au"}, "only meaningful"},
		{"mode portfolio", SolveRequest{Formula: tinyTrue, Mode: "portfolio"}, "unknown mode"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := buildSpec(&c.req, Caps{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

// TestParseEngine pins the mode/strategy contract qbfd and qbfgate share:
// the canonical names the gate keys its cache by, and the exact error
// texts both answer a bad request with.
func TestParseEngine(t *testing.T) {
	cases := []struct {
		mode, strategy string
		want           Engine
		err            string
	}{
		{"", "", Engine{Mode: "po"}, ""},
		{"po", "", Engine{Mode: "po"}, ""},
		{"to", "", Engine{Mode: "to", Strategy: "eu-au"}, ""},
		{"to", "ed-ad", Engine{Mode: "to", Strategy: "ed-ad"}, ""},
		{"", "eu-au", Engine{}, `strategy "eu-au" is only meaningful with mode "to"`},
		{"to", "zz", Engine{}, `unknown strategy "zz"`},
		{"magic", "", Engine{}, `unknown mode "magic"`},
	}
	for _, c := range cases {
		got, err := ParseEngine(c.mode, c.strategy)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("ParseEngine(%q, %q) error = %v, want %q", c.mode, c.strategy, err, c.err)
			}
			continue
		}
		if err != nil || got.Mode != c.want.Mode || got.Strategy != c.want.Strategy {
			t.Errorf("ParseEngine(%q, %q) = %+v, %v; want %+v", c.mode, c.strategy, got, err, c.want)
		}
	}
}

func TestBuildSpecModesAndKeys(t *testing.T) {
	cases := []struct {
		req  SolveRequest
		mode core.Mode
		key  string
	}{
		{SolveRequest{Formula: tinyTrue}, core.ModePartialOrder, "po"},
		{SolveRequest{Formula: tinyTrue, Mode: "po"}, core.ModePartialOrder, "po"},
		{SolveRequest{Formula: tinyTrue, Mode: "to"}, core.ModeTotalOrder, "to:eu-au"},
		{SolveRequest{Formula: tinyTree, Mode: "to", Strategy: "ed-ad"}, core.ModeTotalOrder, "to:ed-ad"},
	}
	for _, c := range cases {
		spec, err := buildSpec(&c.req, Caps{})
		if err != nil {
			t.Fatalf("%+v: %v", c.req, err)
		}
		if spec.key != c.key {
			t.Errorf("%+v: key=%q, want %q", c.req, spec.key, c.key)
		}
		if spec.opt.Mode != c.mode {
			t.Errorf("%+v: mode=%v, want %v", c.req, spec.opt.Mode, c.mode)
		}
	}
}

func TestBuildSpecPrenexesTreeForTotalOrder(t *testing.T) {
	spec, err := buildSpec(&SolveRequest{Formula: tinyTree, Mode: "to"}, Caps{})
	if err != nil {
		t.Fatal(err)
	}
	if !spec.q.Prefix.IsPrenex() {
		t.Fatal("mode to on a tree input must prenex the prefix")
	}
	// Mode po keeps the tree.
	spec, err = buildSpec(&SolveRequest{Formula: tinyTree}, Caps{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.q.Prefix.IsPrenex() {
		t.Fatal("mode po must keep the non-prenex prefix")
	}
}

func TestBuildSpecClampsBudgets(t *testing.T) {
	caps := Caps{MaxTime: time.Second, MaxNodes: 100, MaxMem: 1 << 20}
	cases := []struct {
		name      string
		req       SolveRequest
		wantTime  time.Duration
		wantNodes int64
		wantMem   int64
	}{
		{"zero asks get the caps", SolveRequest{Formula: tinyTrue},
			time.Second, 100, 1 << 20},
		{"over-asks are clamped", SolveRequest{Formula: tinyTrue, MaxTimeMS: 60_000, MaxNodes: 1e6, MaxMemMB: 64},
			time.Second, 100, 1 << 20},
		{"under-asks are kept", SolveRequest{Formula: tinyTrue, MaxTimeMS: 100, MaxNodes: 7, MaxMemMB: 1},
			100 * time.Millisecond, 7, 1 << 20}, // 1 MiB ask == the cap
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, err := buildSpec(&c.req, caps)
			if err != nil {
				t.Fatal(err)
			}
			if spec.opt.TimeLimit != c.wantTime || spec.opt.NodeLimit != c.wantNodes || spec.opt.MemLimit != c.wantMem {
				t.Fatalf("got time=%v nodes=%d mem=%d, want %v/%d/%d",
					spec.opt.TimeLimit, spec.opt.NodeLimit, spec.opt.MemLimit,
					c.wantTime, c.wantNodes, c.wantMem)
			}
		})
	}
	// Uncapped server: requests pass through, zero stays unlimited.
	spec, err := buildSpec(&SolveRequest{Formula: tinyTrue, MaxNodes: 42}, Caps{})
	if err != nil {
		t.Fatal(err)
	}
	if spec.opt.NodeLimit != 42 || spec.opt.TimeLimit != 0 || spec.opt.MemLimit != 0 {
		t.Fatalf("uncapped passthrough broken: %+v", spec.opt)
	}
}

func TestWitnessInts(t *testing.T) {
	model := map[qbf.Var]bool{1: true, 3: false, 4: true}
	got := witnessInts(model, 4)
	want := []int{1, -3, 4}
	if len(got) != len(want) {
		t.Fatalf("witnessInts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("witnessInts = %v, want %v", got, want)
		}
	}
	if witnessInts(nil, 4) != nil {
		t.Fatal("nil model must give nil witness")
	}
}

// TestBuildSpecLinearPrenexCheck sends a mode=to request whose prefix is a
// two-block chain of 200k variables per side. buildSpec checks the prefix
// for prenexity on the decode path, before admission, so the check must
// be linear: under a generous bound it takes milliseconds, while the
// pairwise check takes minutes.
func TestBuildSpecLinearPrenexCheck(t *testing.T) {
	const side = 200_000
	var sb strings.Builder
	fmt.Fprintf(&sb, "p cnf %d 1\ne", 2*side)
	for v := 1; v <= 2*side; v++ {
		if v == side+1 {
			sb.WriteString(" 0\na")
		}
		fmt.Fprintf(&sb, " %d", v)
	}
	sb.WriteString(" 0\n1 0\n")
	req := &SolveRequest{Formula: sb.String(), Mode: "to"}

	lineartest.Within(t, "buildSpec on a mode=to request with a 400k-variable chain", func() {
		if _, err := buildSpec(req, Caps{}); err != nil {
			t.Error(err)
		}
	})
}
