// Command perfbench is the end-to-end benchmark of the repository's two
// products: the MPC spanner build (Build → Save) and the build-once /
// query-many distance service (Open → Serve → internal/server over
// loopback). See README.md for the workloads, the metrics and the layer
// attribution.
//
//	perfbench --workload build --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones, and the spans
// and determinism pins of the run are written to --out/trace-<workload>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workload is one input set of the benchmark: a graph size, an optional
// out-of-core budget, and the serving traffic mix replayed against the
// artifact the build produces.
type workload struct {
	name string
	n    int
	// budget is the extmem byte budget of the build (0 = resident).
	budget int64
	// buildPhase marks the build workloads: their measured phase is half
	// builds and half serving the artifact they built. The serving
	// workloads build their artifact in a separate process first and
	// serve for the whole measured phase.
	buildPhase bool
	// artifactBuilds is the number of builds the serving workloads make
	// for their artifact; build_s is their median.
	artifactBuilds int

	traffic traffic
}

// traffic is the serving mix: request batches over a fixed ring, sources
// Zipf over a hot set (hot > 0) or uniform over all n (hot == 0), targets
// uniform.
type traffic struct {
	batch     int
	hot       int
	zipfS     float64
	cacheRows int
	// warm is the number of uniform sources a replica fills at start when
	// there is no hot set; a hot set is filled whole.
	warm  int
	ring  int           // distinct batches the requests cycle through
	rate  float64       // open-loop requests per second
	limit time.Duration // latency limit of slo_share
	// closedShare is the share of the serving time spent in the closed
	// loop; the rest is the open loop.
	closedShare float64
}

const avgDegree = 40

var hotTraffic = traffic{
	batch: 128, hot: 128, zipfS: 1.1, cacheRows: 1024, ring: 1024,
	rate: 1000, limit: 10 * time.Millisecond, closedShare: 0.7,
}

var workloads = map[string]workload{
	"build":       {name: "build", n: 50000, buildPhase: true, traffic: hotTraffic},
	"build-spill": {name: "build-spill", n: 20000, budget: 8 << 20, buildPhase: true, traffic: hotTraffic},
	"serve-hot":   {name: "serve-hot", n: 50000, artifactBuilds: 3, traffic: hotTraffic},
	"serve-cold": {name: "serve-cold", n: 50000, artifactBuilds: 3, traffic: traffic{
		batch: 1, cacheRows: 256, warm: 64, ring: 512,
		rate: 30, limit: 250 * time.Millisecond, closedShare: 0.5,
	}},
}

// config is one invocation.
type config struct {
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string // directory for artifacts, spill files and trace output
}

func main() {
	var (
		name    = flag.String("workload", "", "build | build-spill | serve-hot | serve-cold")
		seed    = flag.Uint64("seed", 1, "workload seed (graph, trace, build randomness)")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "run"), "working and trace output directory")
		role    = flag.String("role", "", "internal: \"build\" runs the build side of a serving workload")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	// Spill files and temporaries stay under the output directory.
	tmp := filepath.Join(*out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fail(err)
	}
	os.Setenv("TMPDIR", tmp)
	cfg := config{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}

	if *role == "build" {
		rep, err := runBuildSide(cfg)
		if err != nil {
			fail(err)
		}
		emit(rep)
		return
	}
	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	emit(res)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one workload end to end: the build side (in-process for the
// build workloads, in a child process for the serving ones, so the replica
// never pays the build's memory), then the serving side in this process.
func run(cfg config) (*result, error) {
	var bld *buildReport
	var err error
	if cfg.w.buildPhase {
		bld, err = runBuildSide(cfg)
	} else {
		bld, err = runBuildProcess(cfg)
	}
	if err != nil {
		return nil, err
	}
	srv, err := runServing(cfg, bld)
	os.Remove(bld.Artifact)
	if err != nil {
		return nil, err
	}

	res := &result{
		Attempted: bld.Attempted + srv.attempted,
		Failed:    bld.Failed + srv.failed,
		Metrics:   map[string]metric{},
	}
	for _, msg := range append(bld.Failures, srv.failures...) {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	res.Correct = res.Failed == 0 && len(bld.Failures) == 0 && len(srv.failures) == 0
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	if !cfg.trace {
		setup := srv.setupS
		peak := srv.peakRSS
		if cfg.w.buildPhase {
			setup, peak = bld.SetupS, bld.PeakRSS
		}
		put("setup_s", setup, "s")
		put("build_s", bld.BuildS, "s")
		put("peak_rss_mib", float64(peak)/(1<<20), "MiB")
		put("capacity_rps", srv.capacity, "1/s")
		put("p50_ms", srv.p50ms, "ms")
		put("p90_ms", srv.p90ms, "ms")
		put("slo_share", srv.sloShare, "share")
		put("ok_share", float64(res.Attempted-res.Failed)/float64(res.Attempted), "share")
		return res, nil
	}

	for k, v := range bld.Layers {
		res.Metrics[k] = v
	}
	for k, v := range srv.layers {
		res.Metrics[k] = v
	}
	// The primary metric of a build workload is build_s, of a serving
	// workload capacity_rps; both overheads read as "share slower traced".
	overhead := bld.TraceOverhead
	if !cfg.w.buildPhase {
		overhead = srv.traceOverhead
	}
	put("trace.overhead_share", overhead, "share")
	unattributed := bld.Unattributed
	if !cfg.w.buildPhase {
		unattributed = srv.unattributed
	}
	put("unattributed_share", unattributed, "share")

	pins := map[string]any{"build": bld.Pins, "serve": srv.pins}
	if err := writeTrace(cfg, append(bld.Spans, srv.spans...), pins); err != nil {
		return nil, err
	}
	return res, nil
}

func writeTrace(cfg config, spans any, pins any) error {
	path := filepath.Join(cfg.out, "trace-"+cfg.w.name+".json")
	b, err := json.Marshal(map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "gomaxprocs": runtime.GOMAXPROCS(0),
		"pins": pins, "spans": spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
