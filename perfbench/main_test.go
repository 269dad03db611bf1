package main

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"mpcspanner"
)

// tiny is a small spilling build workload that runs the whole path in
// about a second.
var tiny = workload{
	name: "tiny", n: 3000, budget: 1 << 20, buildPhase: true,
	traffic: traffic{batch: 16, hot: 16, zipfS: 1.1, cacheRows: 256,
		ring: 32, rate: 200, limit: time.Second, closedShare: 0.5},
}

// pins runs tiny traced with seed and returns its determinism pins.
func pins(t *testing.T, seed uint64) string {
	t.Helper()
	cfg := config{w: tiny, seed: seed, seconds: time.Second, trace: true, out: t.TempDir()}
	bld, err := runBuildSide(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := runServing(cfg, bld)
	if err != nil {
		t.Fatal(err)
	}
	if fs := append(bld.Failures, srv.failures...); len(fs) > 0 || bld.Failed+srv.failed > 0 {
		t.Fatalf("checks failed: %v", fs)
	}
	if bld.Pins["extmem_spill_bytes"].(int64) == 0 {
		t.Fatal("the tiny workload did not spill; the extmem pins are vacuous")
	}
	b, err := json.Marshal(map[string]any{"build": bld.Pins, "serve": srv.pins})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPinsRepeatForOneSeed(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	a, b := pins(t, 1), pins(t, 1)
	if a != b {
		t.Fatalf("two runs with one seed disagree:\n%s\n%s", a, b)
	}
	if c := pins(t, 2); c == a {
		t.Fatalf("a second seed gave the same pins: %s", c)
	}
}

// The run checks a sample of edges; at this size the full Verify runs and
// both gates must accept the same build.
func TestSpannerGateAgreesWithVerify(t *testing.T) {
	g := makeGraph(tiny.n, 5)
	k, tt := params(tiny.n)
	res, err := mpcspanner.Build(context.Background(), g, mpcspanner.WithAlgorithm(mpcspanner.AlgoMPC),
		mpcspanner.WithK(k), mpcspanner.WithT(tt), mpcspanner.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	bound := mpcspanner.StretchBound(k, tt)
	if _, err := res.Verify(bound); err != nil {
		t.Fatal(err)
	}
	if err := checkSpanner(g, res.EdgeIDs, bound, 5); err != nil {
		t.Fatal(err)
	}
	if err := checkSpanner(g, nil, bound, 5); err == nil {
		t.Fatal("gate accepted the empty spanner")
	}
}
