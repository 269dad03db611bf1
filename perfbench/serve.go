package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpcspanner"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/oracle"
	"mpcspanner/internal/server"
)

// servingReport is the serving side of a run.
type servingReport struct {
	setupS, capacity, p50ms, p90ms, sloShare float64
	peakRSS                                  int64
	attempted, failed                        int
	failures                                 []string

	// Traced runs only.
	layers        map[string]metric
	traceOverhead float64
	unattributed  float64
	pins          map[string]any
	spans         []obs.Span
}

// makeTrace derives the request ring and the warm-up batch of a workload
// from its seed. The program sees only these pairs.
func makeTrace(w workload, seed uint64) (ring [][]mpcspanner.Pair, warm []mpcspanner.Pair) {
	tr := w.traffic
	rng := rand.New(rand.NewPCG(seed, 0x70657266))
	var hot []int
	var zipf *rand.Zipf
	if tr.hot > 0 {
		hot = rng.Perm(w.n)[:tr.hot]
		zipf = rand.NewZipf(rng, tr.zipfS, 1, uint64(tr.hot-1))
		for _, h := range hot {
			warm = append(warm, mpcspanner.Pair{U: h, V: h})
		}
	} else {
		for range tr.warm {
			u := rng.IntN(w.n)
			warm = append(warm, mpcspanner.Pair{U: u, V: u})
		}
	}
	ring = make([][]mpcspanner.Pair, tr.ring)
	for b := range ring {
		ring[b] = make([]mpcspanner.Pair, tr.batch)
		for j := range ring[b] {
			u := rng.IntN(w.n)
			if zipf != nil {
				u = hot[zipf.Uint64()]
			}
			ring[b][j] = mpcspanner.Pair{U: u, V: rng.IntN(w.n)}
		}
	}
	return ring, warm
}

// replica is one oracled-style replica over loopback: an opened artifact, a
// session over it, internal/server in front, and the load generator's own
// client with an idle pool of one connection per client goroutine.
type replica struct {
	art     *mpcspanner.Artifact
	sess    *mpcspanner.Session
	hs      *http.Server
	done    chan error
	client  *server.Client
	ctx     context.Context // carries the httptrace connect counter
	conns   atomic.Int64
	ops     atomic.Int64
	rec     *recorder
	openS   float64
	clients int
}

type ctxKey struct{}

// spanRef travels with a traced request: the caller's span id and the
// request's operation id.
type spanRef struct {
	id int64
	op int
}

const (
	opHeader   = "X-Perfbench-Op"
	spanHeader = "X-Perfbench-Span"
)

// backend is the server's Backend: the session, with a span around every
// call into the oracle when traced.
type backend struct {
	sess *mpcspanner.Session
	rec  *recorder
}

func (b backend) QueryMany(ctx context.Context, pairs []oracle.Pair) ([]float64, error) {
	if b.rec == nil {
		return b.sess.QueryMany(ctx, pairs)
	}
	t0 := time.Now()
	out, err := b.sess.QueryMany(ctx, pairs)
	ref, _ := ctx.Value(ctxKey{}).(spanRef)
	b.rec.add(b.rec.id(), "oracle.query_many", t0, time.Now(), ref.id, ref.op)
	return out, err
}

// tracedHandler records a span around the server's handler, parented to the
// client span named in the request headers.
func tracedHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err1 := strconv.Atoi(r.Header.Get(opHeader))
		parent, err2 := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		id, t0 := rec.id(), time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanRef{id, op})))
		rec.add(id, "server.handle", t0, time.Now(), parent, op)
	})
}

// opTransport copies a traced request's span reference into its headers.
type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(ctxKey{}).(spanRef); ok {
		req = req.Clone(req.Context())
		req.Header.Set(opHeader, strconv.Itoa(ref.op))
		req.Header.Set(spanHeader, strconv.FormatInt(ref.id, 10))
	}
	return t.base.RoundTrip(req)
}

// startReplica is what a replica pays at start: Open (mmap) the artifact,
// Serve it, warm the cache, and listen.
func startReplica(path string, tr traffic, warm []mpcspanner.Pair, rec *recorder, reg *mpcspanner.Metrics) (*replica, error) {
	ctx := context.Background()
	rp := &replica{rec: rec, clients: runtime.NumCPU(), done: make(chan error, 1)}
	t0 := time.Now()
	art, err := mpcspanner.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	rp.art, rp.openS = art, time.Since(t0).Seconds()
	opts := []mpcspanner.Option{mpcspanner.WithArtifact(art), mpcspanner.WithCacheRows(tr.cacheRows)}
	if reg != nil {
		opts = append(opts, mpcspanner.WithMetrics(reg))
	}
	if rp.sess, err = mpcspanner.Serve(ctx, nil, opts...); err != nil {
		art.Close()
		return nil, err
	}
	if _, err := rp.sess.QueryMany(ctx, warm); err != nil {
		art.Close()
		return nil, err
	}
	srv := server.New(server.Config{
		Backend: backend{rp.sess, rec}, Graph: art.Graph(), Metrics: reg,
		MaxInflight: max(4, rp.sess.CacheRows()/4),
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		art.Close()
		return nil, err
	}
	h := srv.Handler()
	var rt http.RoundTripper = &http.Transport{
		MaxIdleConns: rp.clients, MaxIdleConnsPerHost: rp.clients,
		MaxConnsPerHost: rp.clients, DisableCompression: true,
	}
	if rec != nil {
		h, rt = tracedHandler(h, rec), opTransport{rt}
	}
	rp.hs = &http.Server{Handler: h}
	go func() { rp.done <- rp.hs.Serve(l) }()
	rp.client = &server.Client{BaseURL: "http://" + l.Addr().String(), HTTP: &http.Client{Transport: rt}}
	rp.ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(i httptrace.GotConnInfo) {
			if !i.Reused {
				rp.conns.Add(1)
			}
		},
	})
	return rp, nil
}

func (rp *replica) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rp.hs.Shutdown(ctx); err != nil {
		rp.hs.Close() // a request outlived the timeout; drop it
	}
	<-rp.done
	rp.client.HTTP.CloseIdleConnections()
	rp.art.Close()
}

// reqRecord is one request as the load generator saw it. Latency runs from
// the request's due time; lateness from due time to send.
type reqRecord struct {
	ring      int32
	ok        bool
	hash      uint64
	start     time.Time
	lat, late time.Duration
}

func hashDists(d []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range d {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// do sends ring batch b; a zero due time means "due now" (closed loop).
func (rp *replica) do(ring [][]mpcspanner.Pair, b int, due time.Time) reqRecord {
	ctx, op := rp.ctx, int(rp.ops.Add(1))
	var ref spanRef
	if rp.rec != nil {
		ref = spanRef{rp.rec.id(), op}
		ctx = context.WithValue(ctx, ctxKey{}, ref)
	}
	start := time.Now()
	out, err := rp.client.Query(ctx, ring[b], 0)
	end := time.Now()
	if rp.rec != nil {
		rp.rec.add(ref.id, "client.query", start, end, 0, op)
	}
	if due.IsZero() {
		due = start
	}
	return reqRecord{ring: int32(b), ok: err == nil, hash: hashDists(out), start: start,
		lat: end.Sub(due), late: start.Sub(due)}
}

// capacitySegment is the length of one closed-loop segment.
const capacitySegment = time.Second

// closedClients is the closed loop's client count: one fewer than the
// CPUs, at least one. The generator shares the CPUs with the replica; with
// one client per CPU the loop saturates every CPU, and on the 2-vCPU VM
// of README.md its rate then followed whatever else the host ran: over
// five seeds, 0.18 of the median apart between quartiles on serve-hot and
// 0.23 on serve-cold, against 0.07 and 0.13 with one client.
func (rp *replica) closedClients() int { return max(1, rp.clients-1) }

// closedLoop runs closedClients client goroutines, each sending its next
// batch when the previous one returns, for d, starting at ring batch first. It
// runs in segments of about capacitySegment, each starting its clients
// afresh, and capacity is the interquartile mean of the segments'
// completion rates. In one unbroken loop the clients settle into a
// relative phase that lasts the whole loop: on serve-cold, one seed's
// completions per 0.5 s read 65±2 in one run and 84±3 in the next.
// Restarting the clients draws the phase again, so a run averages over it.
func (rp *replica) closedLoop(ring [][]mpcspanner.Pair, d time.Duration, first int) ([]reqRecord, float64) {
	n := max(1, int(d/capacitySegment))
	var recs []reqRecord
	var rates []float64
	for range n {
		rs, rate := rp.closedSegment(ring, d/time.Duration(n), first+len(recs), rp.closedClients())
		recs = append(recs, rs...)
		rates = append(rates, rate)
	}
	return recs, midMean(rates)
}

// closedSegment is one segment of closedLoop, with the given number of
// clients. Its rate is the completion rate after the first tenth of d.
func (rp *replica) closedSegment(ring [][]mpcspanner.Pair, d time.Duration, first, clients int) ([]reqRecord, float64) {
	start := time.Now()
	from, end := start.Add(d/10), start.Add(d)
	var next atomic.Int64
	per := make([][]reqRecord, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1) - 1)
				per[c] = append(per[c], rp.do(ring, (first+i)%len(ring), time.Time{}))
			}
		}()
	}
	wg.Wait()
	var recs []reqRecord
	done := 0
	for _, rs := range per {
		for _, r := range rs {
			recs = append(recs, r)
			if at := r.start.Add(r.lat); !at.Before(from) && at.Before(end) {
				done++
			}
		}
	}
	return recs, float64(done) / end.Sub(from).Seconds()
}

// openLoop sends rate·d requests on a precomputed schedule through at most
// one connection per CPU, starting at ring batch first.
func (rp *replica) openLoop(ring [][]mpcspanner.Pair, d time.Duration, rate float64, first int) []reqRecord {
	n := int(rate * d.Seconds())
	period := time.Duration(float64(time.Second) / rate)
	recs := make([]reqRecord, n)
	t0 := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range rp.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(i) * period)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				recs[i] = rp.do(ring, (first+i)%len(ring), due)
			}
		}()
	}
	wg.Wait()
	return recs
}

// referenceHashes answers every ring batch the run sent with an in-process
// Session.QueryMany over its own handle on the same artifact.
func referenceHashes(path string, tr traffic, ring [][]mpcspanner.Pair, used []bool) ([]uint64, error) {
	ctx := context.Background()
	art, err := mpcspanner.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	defer art.Close()
	sess, err := mpcspanner.Serve(ctx, nil, mpcspanner.WithArtifact(art), mpcspanner.WithCacheRows(tr.cacheRows))
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(ring))
	for b, u := range used {
		if !u {
			continue
		}
		d, err := sess.QueryMany(ctx, ring[b])
		if err != nil {
			return nil, err
		}
		out[b] = hashDists(d)
	}
	return out, nil
}

// runServing is the serving side of a run: start a replica on the
// artifact (the set-up of the serving workloads), drive it closed-loop and
// then open-loop, and check every answer.
func runServing(cfg config, bld *buildReport) (*servingReport, error) {
	w, tr := cfg.w, cfg.w.traffic
	ring, warm := makeTrace(w, cfg.seed)
	total := cfg.seconds
	if w.buildPhase {
		total = cfg.seconds / 2
	}
	closedD := time.Duration(float64(total) * tr.closedShare)
	openD := total - closedD
	rep := &servingReport{layers: map[string]metric{}}
	fail := func(format string, a ...any) {
		rep.failures = append(rep.failures, fmt.Sprintf(format, a...))
	}

	// Return the build's heap to the OS first, so the background scavenger
	// does not compete with the serving phase.
	debug.FreeOSMemory()

	// Set-up, repeated (see setupRounds); the last replica serves.
	var rp *replica
	var setups, opens []float64
	for i := 0; setupRounds(i, setups); i++ {
		if rp != nil {
			rp.close()
		}
		runtime.GC()
		t0 := time.Now()
		r, err := startReplica(bld.Artifact, tr, warm, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, r.openS)
		rp = r
	}
	rep.setupS = median(setups)
	warmStats := rp.sess.Stats()
	rep.pins = map[string]any{"oracle_warm_hits": warmStats.Hits, "oracle_warm_misses": warmStats.Misses}

	var recs []reqRecord
	var reg *mpcspanner.Metrics
	var rec *recorder
	var capUntraced float64
	if cfg.trace {
		// The untraced closed loop of a serving workload is the baseline of
		// trace.overhead_share; the traced replica then runs the workload.
		if !w.buildPhase {
			closedD /= 2
			warmup, _ := rp.closedLoop(ring, closedD/5, 0)
			var rs []reqRecord
			rs, capUntraced = rp.closedLoop(ring, closedD, len(warmup))
			recs = append(append(recs, warmup...), rs...)
		}
		rp.close()
		reg, rec = mpcspanner.NewMetrics(), newRecorder()
		r, err := startReplica(bld.Artifact, tr, warm, rec, reg)
		if err != nil {
			return nil, err
		}
		rp = r
	}

	// Connection warm-up: the pool opens one connection per CPU here and
	// none after.
	warmup, _ := rp.closedSegment(ring, 200*time.Millisecond, 0, rp.clients)
	recs = append(recs, warmup...)
	connsWarm := rp.conns.Load()

	var ms0, ms1 runtime.MemStats
	st0 := rp.sess.Stats()
	runtime.ReadMemStats(&ms0)
	measuredFrom := time.Now()
	closed, capacity := rp.closedLoop(ring, closedD, len(warmup))
	closedWall := time.Since(measuredFrom)
	// The open loop's first quarter (at most 1 s) is a warm-in: its
	// answers are checked but its latencies not counted. Right after the
	// closed loop the first second of requests runs up to 1.5x slower at
	// p90 than the rest.
	warmIn := min(time.Second, openD/4)
	sent := len(warmup) + len(closed)
	warmOpen := rp.openLoop(ring, warmIn, tr.rate, sent)
	open := rp.openLoop(ring, openD-warmIn, tr.rate, sent+len(warmOpen))
	runtime.ReadMemStats(&ms1)
	st1 := rp.sess.Stats()
	rep.peakRSS = obs.PeakRSSBytes()
	conns := rp.conns.Load()
	if conns != connsWarm {
		fmt.Fprintf(os.Stderr, "perfbench: load generator opened %d connections after warm-up\n", conns-connsWarm)
	}
	if tr.hot > 0 && st1.Misses != st0.Misses {
		fail("hot set missed the cache %d times in the measured phase", st1.Misses-st0.Misses)
	}

	var rowMs []float64
	var relax int64
	if cfg.trace {
		// dist: full-row fills on the served graph for sampled sources.
		dreg := obs.NewRegistry()
		solver := dist.NewSolver(rp.art.Graph(), dist.SolverOptions{Metrics: dreg})
		rng := rand.New(rand.NewPCG(cfg.seed, 0x64697374))
		for range 8 {
			t0 := time.Now()
			solver.Row(rng.IntN(w.n))
			rowMs = append(rowMs, ms(time.Since(t0)))
		}
		relax, _ = dreg.Snapshot().Counter("dist_delta_relaxations_total")
	}
	rp.close()

	// Correctness: every answer against the in-process reference.
	recs = append(append(append(recs, closed...), warmOpen...), open...)
	used := make([]bool, len(ring))
	for _, r := range recs {
		used[r.ring] = true
	}
	ref, err := referenceHashes(bld.Artifact, tr, ring, used)
	if err != nil {
		return nil, err
	}
	correct := func(r reqRecord) bool { return r.ok && r.hash == ref[r.ring] }
	var refused, wrong int
	for _, r := range recs {
		switch {
		case !r.ok:
			refused++
		case !correct(r):
			wrong++
		}
	}
	rep.attempted, rep.failed = len(recs), refused+wrong
	if refused > 0 {
		fail("%d of %d requests failed or were shed", refused, len(recs))
	}
	if wrong > 0 {
		fail("%d of %d answers differ from the in-process Session.QueryMany", wrong, len(recs))
	}

	var lats, lates []float64
	inLimit := 0
	for _, r := range open {
		lats = append(lats, ms(r.lat))
		lates = append(lates, ms(r.late))
		if correct(r) && r.lat <= tr.limit {
			inLimit++
		}
	}
	rep.capacity = capacity
	rep.p50ms, rep.p90ms = quantile(lats, 0.5), quantile(lats, 0.9)
	rep.sloShare = float64(inLimit) / float64(len(open))
	if !cfg.trace {
		return rep, nil
	}

	L := rep.layers
	put := func(name string, v float64, unit string) { L[name] = metric{v, unit} }
	snap := reg.Snapshot()
	hits, misses := st1.Hits-st0.Hits, st1.Misses-st0.Misses
	put("artifact.open_ms", median(opens)*1000, "ms")
	put("dist.row_ms", median(rowMs), "ms")
	put("dist.relaxations", float64(relax)/float64(len(rowMs)), "count")
	put("oracle.hit_ratio", float64(hits)/float64(max(1, hits+misses)), "share")
	put("oracle.evictions", float64(st1.Evictions-st0.Evictions), "count")
	if h := snap.Histogram("oracle_queue_wait_seconds"); h != nil {
		put("oracle.sf_waits", float64(h.Count), "count")
	} else {
		put("oracle.sf_waits", 0, "count")
	}
	shed, _ := snap.Counter("server_shed_total")
	put("server.shed", float64(shed), "count")
	put("loadgen.late_p99_ms", quantile(lates, 0.99), "ms")
	put("loadgen.late_max_ms", quantile(lates, 1), "ms")
	put("loadgen.new_conns", float64(conns), "count")

	// Per-request layer times from the spans of one operation.
	type opSpans struct{ client, handle, batch obs.Span }
	byOp := map[int64]*opSpans{}
	var clientBusy time.Duration
	for _, sp := range rec.spans {
		op := attr(sp, "op")
		o := byOp[op]
		if o == nil {
			o = &opSpans{}
			byOp[op] = o
		}
		switch sp.Name {
		case "client.query":
			o.client = sp
			if !sp.Start.Before(measuredFrom) && sp.Start.Before(measuredFrom.Add(closedWall)) {
				clientBusy += sp.Duration
			}
		case "server.handle":
			o.handle = sp
		case "oracle.query_many":
			o.batch = sp
		}
	}
	var batch, wire, queue []float64
	for _, o := range byOp {
		if o.client.Duration == 0 || o.handle.Duration == 0 || o.batch.Duration == 0 {
			continue
		}
		batch = append(batch, ms(o.batch.Duration))
		wire = append(wire, ms(o.client.Duration-o.batch.Duration))
		queue = append(queue, ms(o.batch.Start.Sub(o.handle.Start)))
	}
	put("oracle.batch_ms", median(batch), "ms")
	put("wire.overhead_ms", median(wire), "ms")
	put("server.queue_wait_p90_ms", quantile(queue, 0.9), "ms")
	if !w.buildPhase {
		ops := float64(len(closed) + len(warmOpen) + len(open))
		put("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
		put("go.alloc_kib_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/ops, "KiB")
		rep.traceOverhead = capUntraced/capacity - 1
		rep.unattributed = 1 - clientBusy.Seconds()/(float64(rp.closedClients())*closedWall.Seconds())
	}
	rep.spans = rec.spans
	return rep, nil
}
