package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"mpcspanner"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
)

// buildReport is what the build side of a run hands to the serving side
// (and, for the serving workloads, what the build process prints).
type buildReport struct {
	Artifact  string   `json:"artifact"`
	SetupS    float64  `json:"setup_s"` // median graph generation
	BuildS    float64  `json:"build_s"` // median untraced Build+Save
	PeakRSS   int64    `json:"peak_rss"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures"`

	// Traced runs only.
	Layers        map[string]metric `json:"layers"`
	TraceOverhead float64           `json:"trace_overhead"`
	Unattributed  float64           `json:"unattributed"`
	Pins          map[string]any    `json:"pins"`
	Spans         []obs.Span        `json:"spans"`
}

// makeGraph is the workload input: G(n, p) with average degree 40,
// weights U[1,100], bridged into one component.
func makeGraph(n int, seed uint64) *graph.Graph {
	g := graph.GNP(n, avgDegree/float64(n), graph.UniformWeight(1, 100), seed)
	return graph.Connectify(g, 100)
}

// params returns the paper's Corollary 1.4 parameters k = ⌈log₂ n⌉ and
// t = ⌈log₂ k⌉.
func params(n int) (k, t int) {
	k = int(math.Ceil(math.Log2(float64(n))))
	t = max(1, int(math.Ceil(math.Log2(float64(k)))))
	return k, t
}

// buildOptions are the options of every build. The build keeps the
// library's default seed: the workload seed drives the graph and the
// request trace only. On one n = 50,000 graph the build's random draw
// alone moves the spanner between 276k and 341k edges, and every serving
// metric with it (a row fill costs time in proportion to the spanner's
// size); with the draw held fixed, eight graphs gave 300k–346k.
func buildOptions(k, t int) []mpcspanner.Option {
	return []mpcspanner.Option{
		mpcspanner.WithAlgorithm(mpcspanner.AlgoMPC), mpcspanner.WithK(k), mpcspanner.WithT(t),
	}
}

// setupRounds reports whether a set-up measured i times so far (taking
// times) runs again: at least three times and until it has taken 1.5 s,
// at most 20 times. setup_s is the median.
func setupRounds(i int, times []float64) bool {
	total := 0.0
	for _, t := range times {
		total += t
	}
	return i < 3 || (total < 1.5 && i < 20)
}

// buildSample is one Build+Save, with its layer breakdown when traced.
type buildSample struct {
	ids   []int
	mpc   *mpcspanner.MPCResult
	total time.Duration // Build + Save
	save  time.Duration

	// Traced builds only: wall time between consecutive progress events,
	// per stage; the share of Build no event interval covers, and of
	// Build+Save that neither an interval nor the save covers.
	stages          map[string]time.Duration
	unattributed    float64
	unattributedAll float64
	cpuUtil         float64
	reg             *mpcspanner.Metrics
}

// buildOnce runs one MPC build of g and saves it to path. A traced build
// carries the metrics registry and a progress hook, and records a span per
// stage interval under the build's span.
func buildOnce(g *graph.Graph, w workload, k, t int, path string, rec *recorder, op int) (*buildSample, error) {
	runtime.GC()
	opts := buildOptions(k, t)
	if w.budget > 0 {
		opts = append(opts, mpcspanner.WithMemoryBudget(w.budget))
	}
	type event struct {
		at    time.Time
		stage string
	}
	var events []event
	s := &buildSample{}
	if rec != nil {
		s.reg = mpcspanner.NewMetrics()
		opts = append(opts, mpcspanner.WithMetrics(s.reg),
			mpcspanner.WithProgress(func(ev mpcspanner.ProgressEvent) {
				events = append(events, event{time.Now(), ev.Stage})
			}))
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := mpcspanner.Build(context.Background(), g, opts...)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	tb := time.Now()
	if err := res.Save(path); err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	t1 := time.Now()
	s.ids, s.mpc, s.total, s.save = res.EdgeIDs, res.MPC, t1.Sub(t0), t1.Sub(tb)
	if rec == nil {
		return s, nil
	}

	s.cpuUtil = (cpuSeconds() - cpu0) / t1.Sub(t0).Seconds()
	buildID := rec.id()
	rec.add(buildID, "build", t0, t1, 0, op)
	s.stages = map[string]time.Duration{}
	var covered time.Duration
	for i := 1; i < len(events); i++ {
		d := events[i].at.Sub(events[i-1].at)
		s.stages[events[i].stage] += d
		covered += d
		rec.add(rec.id(), events[i].stage, events[i-1].at, events[i].at, buildID, op)
	}
	rec.add(rec.id(), "artifact.save", tb, t1, buildID, op)
	s.unattributed = 1 - covered.Seconds()/tb.Sub(t0).Seconds()
	s.unattributedAll = 1 - (covered+s.save).Seconds()/s.total.Seconds()
	return s, nil
}

// runBuildSide is the build side of a run: generate the graph, build and save
// it (the measured phase of the build workloads), and check every build.
func runBuildSide(cfg config) (*buildReport, error) {
	w := cfg.w
	rep := &buildReport{Layers: map[string]metric{}}
	fail := func(format string, a ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, a...))
	}

	// Set-up of the build workloads: graph generation, repeated (see
	// setupRounds); the serving workloads generate once.
	var g *graph.Graph
	var gens []float64
	for i := 0; i == 0 || (w.buildPhase && setupRounds(i, gens)); i++ {
		g = nil
		runtime.GC()
		t0 := time.Now()
		g = makeGraph(w.n, cfg.seed)
		gens = append(gens, time.Since(t0).Seconds())
	}
	rep.SetupS = median(gens)

	k, t := params(w.n)
	rep.Artifact = filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.art", w.name, cfg.seed))
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Measured phase. A build workload builds for half the run's seconds,
	// at least three times (four when traced); a serving workload makes
	// its artifact builds. Traced runs alternate untraced and traced
	// builds, so the tracing overhead is measured in one process.
	minBuilds, budget := w.artifactBuilds, time.Duration(0)
	if w.buildPhase {
		minBuilds, budget = 3, cfg.seconds/2
		if cfg.trace {
			minBuilds = 4
		}
	}
	var first []int
	var untraced, tracedTotals []float64
	var samples []*buildSample
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < minBuilds || time.Since(start) < budget; i++ {
		var r *recorder
		if cfg.trace && i%2 == 1 {
			r = rec
		}
		rep.Attempted++
		s, err := buildOnce(g, w, k, t, rep.Artifact, r, i)
		if err != nil {
			rep.Failed++
			fail("build %d: %v", i, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: build %d: %.3f s (traced %v)\n", i, s.total.Seconds(), r != nil)
		if r == nil {
			untraced = append(untraced, s.total.Seconds())
		} else {
			tracedTotals = append(tracedTotals, s.total.Seconds())
			samples = append(samples, s)
		}
		if first == nil {
			first = s.ids
		} else if !slices.Equal(s.ids, first) {
			rep.Failed++
			fail("build %d: spanner differs from build 0 of the same graph and seed", i)
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.PeakRSS = obs.PeakRSSBytes()
	rep.BuildS = median(untraced)
	if first == nil {
		return rep, nil
	}

	// Correctness gates, outside the measured phase. The builds are equal,
	// so a failed gate fails one operation.
	gates := len(rep.Failures)
	if err := checkSpanner(g, first, mpcspanner.StretchBound(k, t), cfg.seed); err != nil {
		fail("spanner: %v", err)
	}
	if w.budget > 0 {
		// The out-of-core build must equal a resident build bit for bit.
		res, err := mpcspanner.Build(context.Background(), g, buildOptions(k, t)...)
		if err != nil || !slices.Equal(res.EdgeIDs, first) {
			fail("spill: budgeted spanner differs from the resident build (err %v)", err)
		}
	}
	art, err := mpcspanner.Open(context.Background(), rep.Artifact)
	if err != nil {
		return nil, err
	}
	checksum, artEdges := art.Checksum(), art.Graph().M()
	art.Close()
	if artEdges != len(first) {
		fail("artifact holds %d edges, the build selected %d", artEdges, len(first))
	}
	if len(rep.Failures) > gates {
		rep.Failed++
	}
	if !cfg.trace {
		return rep, nil
	}

	m := samples[0].mpc
	rep.Pins = map[string]any{
		"spanner_edges": len(first), "mpc_rounds": m.Rounds, "mpc_sorts": m.Sorts,
		"mpc_tuples_moved": m.TuplesMoved, "extmem_spill_bytes": m.SpilledBytes,
		"extmem_runs": m.SpillRuns, "extmem_merge_passes": m.MergePasses,
		"artifact_checksum": checksum,
	}
	for _, s := range samples[1:] {
		if costProfile(s.mpc) != costProfile(m) {
			rep.Failed++
			fail("traced builds disagree on the simulated cost profile")
		}
	}
	rep.TraceOverhead = median(tracedTotals)/median(untraced) - 1
	rep.Unattributed = median(mapf(samples, func(s *buildSample) float64 { return s.unattributedAll }))
	rep.Spans = rec.spans

	L := rep.Layers
	put := func(name string, v float64, unit string) { L[name] = metric{v, unit} }
	each := func(f func(*buildSample) float64) float64 { return median(mapf(samples, f)) }
	snap := func(s *buildSample) obs.Snapshot { return s.reg.Snapshot() }
	put("graph.gen_s", rep.SetupS, "s")
	for _, st := range []string{"grow", "contract", "phase2"} {
		put("mpc."+st+"_s", each(func(s *buildSample) float64 { return s.stages["mpc-"+st].Seconds() }), "s")
	}
	put("mpc.unattributed_share", each(func(s *buildSample) float64 { return s.unattributed }), "share")
	put("mpc.rounds", float64(m.Rounds), "count")
	put("mpc.sorts", float64(m.Sorts), "count")
	put("mpc.tuples_moved", float64(m.TuplesMoved), "count")
	put("mpc.shuffle_mib", each(func(s *buildSample) float64 {
		if h := snap(s).Histogram("mpc_shuffle_bytes"); h != nil {
			return h.Sum / (1 << 20)
		}
		return 0
	}), "MiB")
	put("par.cpu_util", each(func(s *buildSample) float64 { return s.cpuUtil }), "cores")
	put("par.chunk_imbalance_ppm", each(func(s *buildSample) float64 {
		v, _ := snap(s).Gauge("par_chunk_imbalance_ppm")
		return float64(v)
	}), "ppm")
	put("extmem.spill_mib", float64(m.SpilledBytes)/(1<<20), "MiB")
	put("extmem.runs", float64(m.SpillRuns), "count")
	put("extmem.merge_passes", float64(m.MergePasses), "count")
	put("extmem.resident_peak_mib", each(func(s *buildSample) float64 {
		v, _ := snap(s).Gauge("extmem_resident_peak_bytes")
		return float64(v) / (1 << 20)
	}), "MiB")
	put("artifact.save_ms", each(func(s *buildSample) float64 { return ms(s.save) }), "ms")
	if fi, err := os.Stat(rep.Artifact); err == nil {
		put("artifact.mib", float64(fi.Size())/(1<<20), "MiB")
	}
	if w.buildPhase {
		put("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
		put("go.alloc_kib_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(rep.Attempted), "KiB")
	}
	return rep, nil
}

// costProfile is the deterministic part of a build's simulated cost.
func costProfile(m *mpcspanner.MPCResult) [6]int64 {
	return [6]int64{int64(m.Rounds), int64(m.Sorts), m.TuplesMoved, m.SpilledBytes, m.SpillRuns, m.MergePasses}
}

// checkSpanner is the build gate. BuildResult.Verify checks the stretch of
// every input edge, which takes minutes at the workload sizes; the run
// checks the same structural properties and the stretch of a seeded sample
// of edges against the same bound (the package test runs the full Verify
// at a small size).
func checkSpanner(g *graph.Graph, ids []int, bound float64, seed uint64) error {
	for i, id := range ids {
		if id < 0 || id >= g.M() || (i > 0 && id <= ids[i-1]) {
			return fmt.Errorf("edge ids not sorted, unique and in range at %d", i)
		}
	}
	h := g.Subgraph(ids)
	_, gc := g.Components()
	if _, hc := h.Components(); gc != hc {
		return fmt.Errorf("component count changed %d -> %d", gc, hc)
	}
	rep, err := dist.SampledEdgeStretch(g, h, 128, seed)
	if err != nil {
		return err
	}
	if rep.Max > bound {
		return fmt.Errorf("sampled edge stretch %.3f exceeds the bound %.3f", rep.Max, bound)
	}
	return nil
}

// runBuildProcess runs the build side of a serving workload in a child
// process, so the replica's peak RSS is its own and not the build's.
func runBuildProcess(cfg config) (*buildReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--role", "build", "--workload", cfg.w.name,
		"--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.Itoa(int(cfg.seconds/time.Second)),
		"--trace", strconv.Itoa(boolInt(cfg.trace)), "--out", cfg.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("build process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	rep := &buildReport{}
	if err := json.Unmarshal(lines[len(lines)-1], rep); err != nil {
		return nil, fmt.Errorf("build process output: %w", err)
	}
	return rep, nil
}
