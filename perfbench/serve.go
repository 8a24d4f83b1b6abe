package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/router"
	"repro/internal/server"
)

const (
	serveReplicas = 2
	// openRate is the open-loop arrival rate, about a twelfth of the
	// closed-loop capacity on a 2-core host: light enough that a hit
	// seldom queues behind a miss, so p90 reads the miss path.
	openRate = 150.0
	// missEvery is the request-stream period of first visits, which miss
	// every cache tier; the other requests revisit the warmed hot set.
	// A fixed share keeps p90, which falls among the misses, from moving
	// with a random share.
	missEvery = 5
	// closedClients is the closed-loop client count. One client leaves
	// the second vCPU of a 2-vCPU host as headroom: with one client per
	// vCPU the capacity figure swung 14-40% between runs on a shared
	// host, with one about 11%.
	closedClients = 1
)

// cluster is one in-process router over serveReplicas replicas, each
// on its own loopback listener.
type cluster struct {
	replicas []*server.Server
	names    []string // replica host:port, as the router knows them
	rt       *router.Router
	url      string // router base URL
	httpSrvs []*http.Server
	serving  sync.WaitGroup
	client   *http.Client
	trace    *serveTrace // nil when untraced
}

// startCluster boots the replicas and the router with default configs
// and waits until the router answers /readyz.
func startCluster(trace *serveTrace) (*cluster, error) {
	c := &cluster{trace: trace}
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		c.httpSrvs = append(c.httpSrvs, hs)
		c.serving.Add(1)
		go func() {
			defer c.serving.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
		}()
		return ln.Addr().String(), nil
	}
	for i := 0; i < serveReplicas; i++ {
		s, err := server.New(server.Config{})
		if err != nil {
			c.stop()
			return nil, err
		}
		c.replicas = append(c.replicas, s)
		var h http.Handler = s.Handler()
		name := fmt.Sprintf("replica%d", i)
		if trace != nil {
			h = trace.wrap(name, h)
		}
		addr, err := listen(h)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.names = append(c.names, addr)
		trace.name(addr, name)
	}
	rt, err := router.New(router.Config{Replicas: c.names})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.rt = rt
	rt.Start()
	var h http.Handler = rt.Handler()
	if trace != nil {
		h = trace.wrap("router", h)
	}
	addr, err := listen(h)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.url = "http://" + addr
	conns := runtime.NumCPU()
	c.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := c.client.Get(c.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("router not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the router and replicas and waits for every listener
// goroutine to return.
func (c *cluster) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if c.rt != nil {
		_ = c.rt.Drain(ctx) // a timeout here only shortens the wait below
	}
	for _, s := range c.replicas {
		_ = s.Drain(ctx)
	}
	for _, hs := range c.httpSrvs {
		_ = hs.Shutdown(ctx)
	}
	c.serving.Wait()
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

// request is one planned POST /v1/promote.
type request struct {
	prog int // index into the corpus
	body []byte
}

// reply is what the client saw for one request.
type reply struct {
	prog            int
	status          int
	err             error
	mismatch        bool // the outcome differed from the program's canonical bytes
	meta            server.ServingMeta
	replica         string
	due, sent, done time.Time
	id              int64
}

// traffic plans requests: every missEvery-th is a first visit to a pool
// program made unique by a salt, the rest revisit a random hot program.
type traffic struct {
	progs  []program
	hot    int
	seed   int64
	sent   atomic.Int64
	misses atomic.Int64
	ids    atomic.Int64
	traced bool
}

func (t *traffic) next(rng *rand.Rand) request {
	if t.sent.Add(1)%missEvery != 0 {
		i := rng.Intn(t.hot)
		return t.encode(request{prog: i}, t.progs[i])
	}
	k := t.misses.Add(1)
	i := t.hot + int(k)%(len(t.progs)-t.hot)
	salt := fmt.Sprintf("%d-%d", t.seed, k)
	return t.encode(request{prog: i}, salted(t.progs[i], salt))
}

func (t *traffic) encode(r request, p program) request {
	body, err := json.Marshal(server.PromoteRequest{Source: p.Src, Options: server.RequestOptions{Lang: p.Lang}})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	if t.traced {
		// The tracing middleware finds this id at the front of the body;
		// server and router ignore the unknown field.
		id := t.ids.Add(1)
		body = append([]byte(`{"bench_id":`+strconv.FormatInt(id, 10)+`,`), body[1:]...)
	}
	r.body = body
	return r
}

// send runs one request through the router, decodes the reply and
// checks its outcome bytes with k.
func (c *cluster) send(r request, due time.Time, k *checker) reply {
	rep := reply{prog: r.prog, due: due, sent: time.Now()}
	if c.trace != nil {
		rep.id, _ = benchID(r.body)
	}
	resp, err := c.client.Post(c.url+"/v1/promote", "application/json", bytes.NewReader(r.body))
	if err != nil {
		rep.err, rep.done = err, time.Now()
		return rep
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.done = time.Now()
	rep.status, rep.err, rep.replica = resp.StatusCode, err, resp.Header.Get("X-RP-Replica")
	if err == nil && resp.StatusCode == http.StatusOK {
		var pr struct {
			Outcome json.RawMessage    `json:"outcome"`
			Serving server.ServingMeta `json:"serving"`
		}
		if rep.err = json.Unmarshal(body, &pr); rep.err == nil {
			rep.meta, rep.mismatch = pr.Serving, !k.observe(r.prog, pr.Outcome)
		}
	}
	return rep
}

// openLoop sends requests at a fixed arrival rate for d over at most
// NumCPU connections; each request is timed from when it was due. It
// returns the replies and the schedule's start.
func (c *cluster) openLoop(t *traffic, k *checker, rng *rand.Rand, d time.Duration) ([]reply, time.Time) {
	n := int(openRate * d.Seconds())
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = t.next(rng)
	}
	replies := make([]reply, n)
	due := make(chan int, n) // sized to the number of sends: the dispatcher never blocks
	start := time.Now().Add(5 * time.Millisecond)
	at := func(i int) time.Time { return start.Add(time.Duration(float64(i) / openRate * float64(time.Second))) }
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				replies[i] = c.send(reqs[i], at(i), k)
			}
		}()
	}
	for i := range reqs {
		if wait := time.Until(at(i)); wait > 0 {
			time.Sleep(wait)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	return replies, start
}

// closedLoop runs closedClients clients that each send their next
// request as soon as the previous one completes, for d.
func (c *cluster) closedLoop(t *traffic, chk *checker, seed int64, d time.Duration) []reply {
	clients := closedClients
	out := make([][]reply, clients)
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(k) + 1))
			for time.Now().Before(stop) {
				r := t.next(rng)
				out[k] = append(out[k], c.send(r, time.Now(), chk))
			}
		}(k)
	}
	wg.Wait()
	var all []reply
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// checker holds each program's canonical outcome bytes: every 200 for
// a program must carry them byte for byte, whatever its cache state.
type checker struct {
	progs     []program
	refs      map[string]reference
	mu        sync.Mutex
	canonical map[int][]byte
}

// observe reports whether outcome equals prog's canonical bytes; the
// first outcome seen for a program becomes canonical.
func (k *checker) observe(prog int, outcome []byte) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	want, ok := k.canonical[prog]
	if !ok {
		k.canonical[prog] = outcome
		return true
	}
	return bytes.Equal(want, outcome)
}

// check counts rep as attempted, and as failed unless it is a 200 whose
// outcome matched.
func (k *checker) check(o *outcome, rep reply) {
	o.Attempted++
	name := k.progs[rep.prog].Name
	switch {
	case rep.err != nil:
		o.fail("%s: %v", name, rep.err)
	case rep.status != http.StatusOK:
		o.fail("%s: status %d", name, rep.status)
	case rep.mismatch:
		o.fail("%s: outcome differs from an earlier response (cache %s)", name, rep.meta.Cache)
	}
}

// setupServe generates and checks the corpus, boots a cluster and warms
// the hot set through the router. The warm responses are checked with k,
// or with a new checker when k is nil.
func setupServe(trace *serveTrace, k *checker) (*cluster, *checker, error) {
	fs, err := loadFrozen(wlServe)
	if err != nil {
		return nil, nil, err
	}
	progs, _, err := workloadInputs(wlServe)
	if err != nil {
		return nil, nil, err
	}
	refs, err := fs.check(progs)
	if err != nil {
		return nil, nil, err
	}
	c, err := startCluster(trace)
	if err != nil {
		return nil, nil, err
	}
	if k == nil {
		k = &checker{progs: progs, refs: refs, canonical: make(map[int][]byte)}
	}
	warm := &traffic{progs: progs, hot: serveHot}
	for i := 0; i < serveHot; i++ {
		rep := c.send(warm.encode(request{prog: i}, progs[i]), time.Now(), k)
		if rep.err != nil || rep.status != http.StatusOK || rep.mismatch {
			c.stop()
			return nil, nil, fmt.Errorf("warming %s: status %d: %v", progs[i].Name, rep.status, rep.err)
		}
	}
	return c, k, nil
}

// runServe measures serve-routed: an open-loop phase for latency, then
// a closed-loop phase for capacity. The traced run instead follows an
// untraced open-loop phase with a traced one on a fresh cluster.
func runServe(o *outcome, seconds int, seed int64, rng *rand.Rand) error {
	half := time.Duration(seconds) * time.Second / 2
	type booted struct {
		c *cluster
		k *checker
	}
	b, err := timedSetup(o, func() (booted, error) {
		c, k, err := setupServe(nil, nil)
		return booted{c, k}, err
	}, func(b booted) { b.c.stop() })
	if err != nil {
		return err
	}
	c, k := b.c, b.k
	t := &traffic{progs: k.progs, hot: serveHot, seed: seed}

	wall0, cpu0 := time.Now(), cpuTime()
	open, start := c.openLoop(t, k, rng, half)
	if o.Trace {
		o.WallS, o.CPUS = time.Since(wall0).Seconds(), (cpuTime() - cpu0).Seconds()
		c.stop()
		for _, rep := range open {
			k.check(o, rep)
		}
		setOpenLatency(o, open, start, half)
		return runServeTraced(o, k, open, seed, rng, half)
	}
	closedStart := time.Now()
	closed := c.closedLoop(t, k, seed, half)
	o.WallS, o.CPUS = time.Since(wall0).Seconds(), (cpuTime() - cpu0).Seconds()
	if m, err := scrape(c.client, c.url+"/metrics", "rprouter_hedges_total"); err == nil {
		o.Details["router_hedges"] = m["rprouter_hedges_total"]
	}
	c.stop()
	byState := map[string][]float64{}
	for _, rep := range open {
		byState[rep.meta.Cache] = append(byState[rep.meta.Cache], ms(rep.done.Sub(rep.due)))
	}
	for state, v := range byState {
		d := newDist(v)
		o.Details["open_"+state+"_n"] = float64(d.n())
		o.Details["open_"+state+"_p50_ms"] = d.q(0.5)
		o.Details["open_"+state+"_p90_ms"] = d.q(0.9)
	}
	o.Repeats = 1

	for _, rep := range open {
		k.check(o, rep)
	}
	for _, rep := range closed {
		k.check(o, rep)
	}
	var rate []float64
	for _, w := range windows(closed, closedStart, half, func(r reply) time.Time { return r.done }) {
		ok := 0
		for _, rep := range w {
			if rep.err == nil && rep.status == http.StatusOK && !rep.mismatch {
				ok++
			}
		}
		rate = append(rate, float64(ok))
	}
	o.setWindowed("throughput_per_s", rate, len(closed),
		fmt.Sprintf("closed loop, %d client; median over %d one-second windows", closedClients, len(rate)))
	setOpenLatency(o, open, start, half)
	o.set("cpu_ms_per_op", 1000*o.CPUS/float64(len(open)+len(closed)), measured{Samples: len(open) + len(closed),
		Note: "process CPU (client, router and replicas) per request"})
	o.set("peak_rss_mb", peakRSSMB(), measured{})
	k.finish(o)
	return nil
}

// setOpenLatency sets the open-loop latency percentiles: medians over
// one-second windows of each window's percentile, so that a burst inside
// a run (a GC cycle, a run of hedges) does not decide its figure.
func setOpenLatency(o *outcome, open []reply, start time.Time, d time.Duration) {
	var p50, p90 []float64
	for _, w := range windows(open, start, d, func(r reply) time.Time { return r.due }) {
		lat := newDist(openLatencies(w))
		p50, p90 = append(p50, lat.q(0.5)), append(p90, lat.q(0.9))
	}
	perWindow := fmt.Sprintf("median over %d one-second windows of about %g requests each", len(p90), openRate)
	o.setWindowed("latency_p50_ms", p50, len(open),
		fmt.Sprintf("open loop at %g req/s, timed from each request's due time; %s", openRate, perWindow))
	o.setWindowed("latency_p90_ms", p90, len(open), perWindow)
}

// windows splits replies into the whole one-second windows of a phase
// that began at start and lasted d, by the time at gives each reply.
func windows(replies []reply, start time.Time, d time.Duration, at func(reply) time.Time) [][]reply {
	out := make([][]reply, max(1, int(d/time.Second)))
	for _, rep := range replies {
		if i := int(at(rep).Sub(start) / time.Second); i >= 0 && i < len(out) {
			out[i] = append(out[i], rep)
		}
	}
	return out
}

// openLatencies are the successful open-loop requests' latencies from
// their due times, in ms. A failed request counts as infinitely late.
func openLatencies(replies []reply) []float64 {
	lat := make([]float64, len(replies))
	for i, rep := range replies {
		lat[i] = ms(rep.done.Sub(rep.due))
		if rep.err != nil || rep.status != http.StatusOK {
			lat[i] = math.Inf(1)
		}
	}
	return lat
}

// finish runs every program through a local pipeline.Run with default
// options, checks it against the frozen reference and requires every
// served outcome to equal it byte for byte. The local runs also supply
// the exact counts, so they cover the whole corpus even when a short run
// leaves a pool program unvisited.
func (k *checker) finish(o *outcome) {
	var dynMem, dynSteps, static, nColors float64
	var encode []float64
	for i, p := range k.progs {
		out, err := pipeline.Run(p.Src, pipeline.Options{Lang: p.Lang})
		if err != nil {
			o.fail("%s: local run: %v", p.Name, err)
			continue
		}
		if err := verifyMeasured(out, k.refs[p.Name]); err != nil {
			o.fail("%s: local run: %v", p.Name, err)
			continue
		}
		t0 := time.Now()
		local, err := json.Marshal(report.EncodeOutcome(out))
		encode = append(encode, ms(time.Since(t0)))
		if served, ok := k.canonical[i]; err != nil || (ok && !bytes.Equal(local, served)) {
			o.fail("%s: served outcome differs from a local pipeline.Run", p.Name)
			continue
		}
		dynMem += float64(out.After.DynMemOps())
		dynSteps += float64(out.After.Steps)
		static += float64(out.StaticAfter.Total())
		nColors += float64(colors(out.Prog))
	}
	o.set("dyn_memops_after", dynMem, measured{})
	o.set("dyn_steps_after", dynSteps, measured{})
	o.set("static_memops_after", static, measured{})
	o.set("colors_after", nColors, measured{})
	o.set("report.encode_ms", mean(encode), measured{Samples: len(encode)})
	o.set("unverified", 0, measured{})
	o.set("error_ratio", ratio(float64(o.Failed), float64(o.Attempted)), measured{Samples: o.Attempted})
}

// runServeTraced runs the traced open-loop phase on a fresh cluster
// whose router and replica handlers are wrapped in timing middleware,
// and derives the per-layer metrics. untraced is the preceding
// untraced phase, the baseline for the tracing overhead.
func runServeTraced(o *outcome, k *checker, untraced []reply, seed int64, rng *rand.Rand, d time.Duration) error {
	tr := newServeTrace()
	c, _, err := setupServe(tr, k)
	if err != nil {
		return err
	}
	defer c.stop()
	t := &traffic{progs: k.progs, hot: serveHot, seed: seed, traced: true}
	routerSeries := []string{"rprouter_hedges_total", "rprouter_spills_total"}
	replicaSeries := []string{"rpserved_analysis_builds", "rpserved_cache_misses_total"}
	r0, err := scrape(c.client, c.url+"/metrics", routerSeries...)
	if err != nil {
		return err
	}
	b0, err := c.scrapeReplicas(replicaSeries)
	if err != nil {
		return err
	}
	replies, _ := c.openLoop(t, k, rng, d)
	r1, err := scrape(c.client, c.url+"/metrics", routerSeries...)
	if err != nil {
		return err
	}
	b1, err := c.scrapeReplicas(replicaSeries)
	if err != nil {
		return err
	}
	o.Repeats = 1

	var handler, hit, miss, hop, transport, pipe, queue []float64
	stageMS := make(map[string]float64)
	stageN := make(map[string]int)
	var considered, promoted, misses, hits, collapsed int
	for _, rep := range replies {
		failed := o.Failed
		k.check(o, rep)
		if o.Failed != failed {
			continue
		}
		routerSpan, ok1 := tr.span("router", rep.id)
		replicaSpan, ok2 := tr.span(tr.names[rep.replica], rep.id)
		if !ok1 || !ok2 {
			o.fail("%s: request %d has no router or replica span", k.progs[rep.prog].Name, rep.id)
			continue
		}
		handler = append(handler, ms(replicaSpan))
		hop = append(hop, ms(routerSpan-replicaSpan))
		transport = append(transport, ms(rep.done.Sub(rep.sent)-routerSpan))
		switch rep.meta.Cache {
		case "hit":
			hits++
			hit = append(hit, ms(replicaSpan))
		case "collapsed":
			collapsed++
		case "miss":
			misses++
			miss = append(miss, ms(replicaSpan))
			pipe = append(pipe, rep.meta.PipelineMS)
			queue = append(queue, rep.meta.QueueWaitMS)
			for _, s := range rep.meta.Stages {
				stageMS[s.Stage] += s.WallMS
				stageN[s.Stage] += s.Count
			}
			var enc report.OutcomeJSON
			if err := json.Unmarshal(k.canonical[rep.prog], &enc); err == nil {
				considered += enc.Total.WebsConsidered
				promoted += enc.Total.WebsPromoted
			}
		}
	}
	n := len(handler)
	med := func(v []float64) float64 { return newDist(v).q(0.5) }
	o.set("server.handler_ms", med(handler), measured{Samples: n, Quantile: 0.5})
	o.set("server.hit_ms", med(hit), measured{Samples: len(hit), Quantile: 0.5})
	o.set("server.miss_ms", med(miss), measured{Samples: len(miss), Quantile: 0.5})
	o.set("server.pipeline_ms", med(pipe), measured{Samples: len(pipe), Quantile: 0.5})
	o.set("server.queue_wait_ms", mean(queue), measured{Samples: len(queue)})
	o.set("server.cache_hit_ratio", ratio(float64(hits), float64(n)), measured{Samples: n})
	o.set("server.collapsed", float64(collapsed), measured{Samples: n})
	o.set("router.hop_ms", med(hop), measured{Samples: n, Quantile: 0.5,
		Note: "router handler span minus the winning replica's handler span"})
	o.set("router.hedges", r1["rprouter_hedges_total"]-r0["rprouter_hedges_total"], measured{})
	o.set("router.spills", r1["rprouter_spills_total"]-r0["rprouter_spills_total"], measured{})
	o.set("client.transport_ms", med(transport), measured{Samples: n, Quantile: 0.5,
		Note: "client span minus the router handler span"})

	var late []float64
	for _, rep := range untraced {
		late = append(late, ms(rep.sent.Sub(rep.due)))
	}
	ul, tl := newDist(openLatencies(untraced)), newDist(openLatencies(replies))
	o.set("client.gen_late_ms", med(late), measured{Samples: len(late), Quantile: 0.5})
	o.set("client.latency_p99_ms", ul.q(0.99), measured{Samples: ul.n(), Quantile: 0.99,
		Note: fmt.Sprintf("untraced open loop; %d samples beyond it", ul.n()-int(math.Ceil(0.99*float64(ul.n()))))})
	o.set("trace.untraced_ms", ul.q(0.5), measured{Samples: ul.n(), Quantile: 0.5})
	o.set("trace.traced_ms", tl.q(0.5), measured{Samples: tl.n(), Quantile: 0.5})
	o.set("trace.overhead_ms", tl.q(0.5)-ul.q(0.5), measured{Samples: tl.n()})

	// The replicas' own stage timings, per request that ran the
	// pipeline, stand in for module spans the benchmark cannot open
	// inside a replica.
	perMiss := func(metric string, stages ...string) {
		v := 0.0
		for _, s := range stages {
			v += stageMS[s]
		}
		o.set(metric, perOp(v, misses), measured{Samples: misses, Note: "from the replicas' stage timings"})
	}
	perMiss("source.compile_ms", pipeline.StageCompile)
	perMiss("alias.analyze_ms", pipeline.StageAlias)
	perMiss("cfg.normalize_ms", pipeline.StageNormalize)
	perMiss("interp.train_ms", pipeline.StageTrain)
	perMiss("interp.measure_ms", pipeline.StageMeasureBefore, pipeline.StageMeasureAfter)
	perMiss("ssa.build_ms", pipeline.StageSSABuild)
	perMiss("core.promote_ms", pipeline.StagePromote)
	perMiss("ssa.destruct_ms", pipeline.StageDestruct)
	perMiss("ir.verify_ms", pipeline.StageVerify)
	var stagesTotal float64
	for _, v := range stageMS {
		stagesTotal += v
	}
	o.set("pipeline.orchestration_ms", mean(pipe)-perOp(stagesTotal, misses), measured{Samples: misses,
		Note: "pipeline wall time minus its stages' wall time"})
	calls := func(metric string, stages ...string) {
		v := 0
		for _, s := range stages {
			v += stageN[s]
		}
		o.set(metric, perOp(float64(v), misses), measured{Samples: misses})
	}
	calls("pipeline.compile_calls", pipeline.StageCompile)
	calls("pipeline.normalize_calls", pipeline.StageNormalize)
	calls("pipeline.interp_runs", pipeline.StageTrain, pipeline.StageMeasureBefore, pipeline.StageMeasureAfter)
	calls("interp.runs", pipeline.StageTrain, pipeline.StageMeasureBefore, pipeline.StageMeasureAfter)
	o.set("core.webs_considered", perOp(float64(considered), misses), measured{Samples: misses})
	o.set("core.webs_promoted", perOp(float64(promoted), misses), measured{Samples: misses})
	o.set("core.promote_ratio", ratio(float64(promoted), float64(considered)), measured{Samples: misses})
	runs := b1["rpserved_cache_misses_total"] - b0["rpserved_cache_misses_total"]
	for key, v := range b1 {
		if kind, ok := strings.CutPrefix(key, `rpserved_analysis_builds{kind="`); ok {
			kind = strings.TrimSuffix(kind, `"}`)
			o.set("analysis.builds."+kind, ratio(v-b0[key], runs), measured{Samples: int(runs)})
		}
	}
	k.finish(o)
	return nil
}

// scrapeReplicas sums series over every replica's /metrics.
func (c *cluster) scrapeReplicas(names []string) (map[string]float64, error) {
	total := make(map[string]float64)
	for _, addr := range c.names {
		m, err := scrape(c.client, "http://"+addr+"/metrics", names...)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}

// serveTrace times the router's and each replica's handler per request,
// keyed by the bench_id the client puts at the front of the body.
type serveTrace struct {
	mu    sync.Mutex
	spans map[string]map[int64]time.Duration // layer → id → duration
	names map[string]string                  // replica address → layer
}

func newServeTrace() *serveTrace {
	return &serveTrace{spans: make(map[string]map[int64]time.Duration), names: make(map[string]string)}
}

func (t *serveTrace) name(addr, layer string) {
	if t != nil {
		t.names[addr] = layer
	}
}

// wrap is the timing middleware for one layer's handler.
func (t *serveTrace) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil {
			http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if id, ok := benchID(body); ok {
			t.mu.Lock()
			if t.spans[layer] == nil {
				t.spans[layer] = make(map[int64]time.Duration)
			}
			t.spans[layer][id] = d
			t.mu.Unlock()
		}
	})
}

// span returns the layer's recorded duration for request id.
func (t *serveTrace) span(layer string, id int64) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	d, ok := t.spans[layer][id]
	return d, ok
}

// benchID parses the id the traced client puts at the front of a body.
func benchID(body []byte) (int64, bool) {
	const prefix = `{"bench_id":`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return 0, false
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return 0, false
	}
	id, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	return id, err == nil
}

// scrape sums the named Prometheus series (all label sets) from url.
func scrape(client *http.Client, url string, names ...string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, n := range names {
			if !strings.HasPrefix(line, n) {
				continue
			}
			rest := line[len(n):]
			if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
				continue
			}
			f := strings.Fields(rest)
			if v, err := strconv.ParseFloat(f[len(f)-1], 64); err == nil {
				out[n+labelOf(rest)] += v
			}
		}
	}
	return out, sc.Err()
}

// labelOf returns a series' label set, "" when it has none.
func labelOf(rest string) string {
	if rest[0] != '{' {
		return ""
	}
	if end := strings.IndexByte(rest, '}'); end > 0 {
		return rest[:end+1]
	}
	return ""
}
