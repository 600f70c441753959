package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/server"
	"minsim/internal/simrun"
)

// request is one scheduled simd request. Warm requests ask for one of
// the ten pre-warmed paper panels; cold requests carry a one-point
// inline experiment with a seed of their own, so the store misses.
type request struct {
	Phase string        // "lo" or "hi" in the open loop, "burst" in the closed loop
	Due   time.Duration // send time, from the start of the schedule
	Cold  bool
	Panel int    // warm: index into experiments.Figures()
	Seed  uint64 // cold: budget seed
}

// makeSchedule builds the open-loop schedule from the seed. Time is cut
// into blocks of s.block; each block runs at loRate or hiRate, and the
// lo and hi blocks are interleaved evenly, so both rates see the same
// machine conditions over the whole run. A block at rate λ holds
// exactly λ·block arrivals at uniformly random times — a Poisson
// process conditioned on its count — so each phase gets a fixed sample
// size: loWindowShare of the window at loRate and the rest at hiRate,
// each at least minPhaseN requests. Every coldEvery-th request (from a
// seeded offset) is cold, so cold requests almost never queue behind
// each other: p99 then measures a cold request's own latency instead of
// landing on the rare, all-or-nothing event of two colliding.
func makeSchedule(seed uint64, window time.Duration, s sizes) []request {
	rng := rand.New(rand.NewPCG(seed, deriveSeed(seed, "simd-schedule")))
	perBlock := func(rate float64) int { return max(1, int(math.Round(rate*s.block.Seconds()))) }
	loPer, hiPer := perBlock(s.loRate), perBlock(s.hiRate)
	loN := max(s.minPhaseN, int(loWindowShare*window.Seconds()*s.loRate))
	hiN := max(s.minPhaseN, int((1-loWindowShare)*window.Seconds()*s.hiRate))
	loBlocks, hiBlocks := (loN+loPer-1)/loPer, (hiN+hiPer-1)/hiPer
	blocks := loBlocks + hiBlocks
	offset := rng.IntN(s.coldEvery)
	out := make([]request, 0, loBlocks*loPer+hiBlocks*hiPer)
	for b := 0; b < blocks; b++ {
		phase, n := "hi", hiPer
		if (b+1)*loBlocks/blocks > b*loBlocks/blocks {
			phase, n = "lo", loPer
		}
		at := make([]float64, n)
		for i := range at {
			at[i] = rng.Float64()
		}
		sort.Float64s(at)
		for _, u := range at {
			q := request{Phase: phase, Due: time.Duration((float64(b) + u) * float64(s.block))}
			if (len(out)+offset)%s.coldEvery == 0 {
				q.Cold = true
				q.Seed = rng.Uint64() | 1
			} else {
				q.Panel = rng.IntN(len(experiments.Figures()))
			}
			out = append(out, q)
		}
	}
	return out
}

// loWindowShare is the part of the window the low rate gets; the high
// rate, with more arrivals per second, gets the rest.
const loWindowShare = 0.55

// coldLoad is the offered load of every cold point: below TMIN
// saturation, so each costs about the same engine time.
const coldLoad = 0.2

type budgetBody struct {
	Warmup  int64  `json:"warmup"`
	Measure int64  `json:"measure"`
	Seed    uint64 `json:"seed"`
}

type runBody struct {
	Figures     []string          `json:"figures,omitempty"`
	Experiments []json.RawMessage `json:"experiments,omitempty"`
	Budget      budgetBody        `json:"budget"`
}

// coldExperiment is the inline one-point experiment of a cold request.
func coldExperiment(q request, i int) []byte {
	exp := map[string]any{
		"id":    fmt.Sprintf("cold-%d", i),
		"loads": []float64{coldLoad},
		"curves": []map[string]any{{
			"label":    "TMIN",
			"network":  map[string]any{"kind": "tmin", "wiring": "cube", "k": 4, "stages": 3},
			"workload": map[string]any{"cluster": "global", "pattern": "uniform"},
		}},
	}
	data, _ := json.Marshal(exp) // maps of plain values always marshal
	return data
}

// snapshot is the part of a simd job snapshot the benchmark reads.
type snapshot struct {
	Status     string           `json:"status"`
	Counters   simrun.Counters  `json:"counters"`
	DurationMs int64            `json:"duration_ms"`
	Figures    []metrics.Figure `json:"figures"`
}

// simd is one booted service: server.New over a store, and an HTTP
// listener on loopback.
type simd struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{}
}

func bootSimd(cfg config, st simrun.Store) (*simd, error) {
	srv, err := server.New(server.Config{Store: st, SimWorkers: cfg.workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &simd{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop shuts the service down and waits for its goroutines.
func (s *simd) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.http.Shutdown(ctx)
	<-s.done
}

// post sends a JSON body to /v1/run and returns the status and the
// full response body.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// outcome is one request's measurement.
type outcome struct {
	status  int
	err     error
	latency time.Duration // completion minus due time
	rtt     time.Duration // completion minus send time
	body    []byte
}

// makeBurst builds the requests of closed-loop burst rep: burstN
// requests in the open loop's mix, every coldEvery-th one cold with a
// seed of its own, so each burst's cold requests miss the store. The
// warm requests go through the ten panels in seeded random orders, so
// every burst asks for each panel equally often and bursts differ only
// in order and cold seeds.
func makeBurst(seed uint64, rep int, s sizes) []request {
	rng := rand.New(rand.NewPCG(seed, deriveSeed(seed, fmt.Sprintf("simd-burst-%d", rep))))
	out := make([]request, s.burstN)
	var panels []int
	for i := range out {
		out[i].Phase = "burst"
		if i%s.coldEvery == s.coldEvery-1 {
			out[i].Cold = true
			out[i].Seed = rng.Uint64() | 1
			continue
		}
		if len(panels) == 0 {
			panels = rng.Perm(len(experiments.Figures()))
		}
		out[i].Panel, panels = panels[0], panels[1:]
	}
	return out
}

// simdTally checks every simd response and accumulates what the
// responses report.
type simdTally struct {
	exps     []experiments.Experiment
	panelDig []string // digest of each pre-warmed panel

	requests, rejected int64
	executed, cached   int64
	jobMs, waitMs      map[bool][]float64 // by cold
	cold               []coldResult
}

// add checks one response: a warm request must execute nothing and
// return the pre-warmed figure, a cold one must execute its point.
// Cold points are kept for the replay when keepCold is set.
func (t *simdTally) add(r *runReport, i int, q request, o outcome, keepCold bool) {
	r.attempted++
	t.requests++
	if o.status == http.StatusTooManyRequests {
		t.rejected++
	}
	if o.err != nil || o.status != http.StatusOK {
		r.failed++
		r.note("request %s-%d: status %d err %v", q.Phase, i, o.status, o.err)
		return
	}
	var snap snapshot
	if err := json.Unmarshal(o.body, &snap); err != nil || snap.Status != "done" || len(snap.Figures) != 1 {
		r.check(false, "request %s-%d: bad snapshot (status %q, %v)", q.Phase, i, snap.Status, err)
		return
	}
	t.executed += int64(snap.Counters.Executed)
	t.cached += int64(snap.Counters.Cached)
	t.jobMs[q.Cold] = append(t.jobMs[q.Cold], float64(snap.DurationMs))
	t.waitMs[q.Cold] = append(t.waitMs[q.Cold], millis(o.rtt)-float64(snap.DurationMs))
	if !q.Cold {
		r.check(snap.Counters.Executed == 0, "warm request %s-%d: executed %d, want 0", q.Phase, i, snap.Counters.Executed)
		r.check(digestFigures(snap.Figures) == t.panelDig[q.Panel], "warm request %s-%d: %s differs from the pre-warmed figure", q.Phase, i, t.exps[q.Panel].ID)
		return
	}
	r.check(snap.Counters.Executed >= 1, "cold request %s-%d: executed %d, want >= 1", q.Phase, i, snap.Counters.Executed)
	pts := snap.Figures[0].Series
	if len(pts) != 1 || len(pts[0].Points) != 1 {
		r.check(false, "cold request %s-%d: want one point", q.Phase, i)
		return
	}
	if keepCold {
		t.cold = append(t.cold, coldResult{q: q, pt: pts[0].Points[0]})
	}
}

// runSimdOpen boots simd over a DiskStore and pre-warms the ten panels
// (set-up), drives the open-loop schedule against it over loopback
// HTTP for openShare of the window, then sends closed-loop bursts of
// the same request mix for the rest. wall_s is the fastest burst.
func runSimdOpen(cfg config, r *runReport) error {
	exps := experiments.Figures()
	warmBudget := budgetBody{Warmup: cfg.size.warmWarmup, Measure: cfg.size.warmMeasure, Seed: deriveSeed(cfg.seed, "simd-warm")}
	coldBudget := func(q request) budgetBody {
		return budgetBody{Warmup: cfg.size.coldWarmup, Measure: cfg.size.coldMeasure, Seed: q.Seed}
	}
	fp, err := fingerprint(r)
	if err != nil {
		return err
	}
	transport := &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers, DisableCompression: true}
	defer transport.CloseIdleConnections()
	var (
		tr *tracer
		tt *tracedTransport
		rt http.RoundTripper = transport
	)
	if cfg.trace {
		tr = newTracer()
		tt = &tracedTransport{inner: transport, tr: tr}
		rt = tt
	}
	client := &http.Client{Transport: rt, Timeout: time.Minute}

	// Set-up: boot and pre-warm setupReps times; the last service is the
	// one measured.
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	warmBody, err := json.Marshal(runBody{Figures: ids, Budget: warmBudget})
	if err != nil {
		return err
	}
	var (
		svc      *simd
		ts       *tracedStore
		setups   []time.Duration
		panelDig []string
		panels   []metrics.Figure
	)
	for rep := 0; rep < cfg.size.setupReps; rep++ {
		if svc != nil {
			svc.stop()
		}
		t0 := time.Now()
		dir, err := mkScratch(cfg, "simd-store")
		if err != nil {
			return err
		}
		disk, err := simrun.NewStore(dir)
		if err != nil {
			return err
		}
		var st simrun.Store = disk
		if cfg.trace {
			ts = &tracedStore{inner: disk, tr: tr}
			st = ts
		}
		if svc, err = bootSimd(cfg, st); err != nil {
			return err
		}
		code, body, err := post(client, svc.url, warmBody)
		if err != nil {
			svc.stop()
			return fmt.Errorf("pre-warm: %w", err)
		}
		setup := time.Since(t0)
		if rep == 0 {
			setup += fp
		}
		setups = append(setups, setup)
		var snap snapshot
		if err := json.Unmarshal(body, &snap); err != nil || code != http.StatusOK {
			svc.stop()
			return fmt.Errorf("pre-warm: status %d: %v: %.200s", code, err, body)
		}
		r.check(snap.Counters.Executed == paperUnique && len(snap.Figures) == len(exps),
			"pre-warm: %d points executed, %d figures", snap.Counters.Executed, len(snap.Figures))
		dig := make([]string, len(snap.Figures))
		for i, f := range snap.Figures {
			dig[i] = digestFigures([]metrics.Figure{f})
		}
		if panelDig != nil {
			r.check(fmt.Sprint(dig) == fmt.Sprint(panelDig), "pre-warm %d: figures differ from the first pre-warm", rep)
		}
		panelDig, panels = dig, snap.Figures
	}
	defer svc.stop()
	if len(panels) != len(exps) {
		return fmt.Errorf("pre-warm returned %d figures, want %d", len(panels), len(exps))
	}
	claims := evaluateClaims(exps, panels, r)
	if ts != nil {
		ts.gets.Store(0)
		ts.hits.Store(0)
	}

	// requestBody encodes one request, timing the parse of each cold
	// request's inline experiment.
	var parseTimes []time.Duration
	requestBody := func(q request, i int) ([]byte, error) {
		if !q.Cold {
			return json.Marshal(runBody{Figures: []string{exps[q.Panel].ID}, Budget: warmBudget})
		}
		exp := coldExperiment(q, i)
		t := time.Now()
		_, err := experiments.ParseJSON(exp)
		parseTimes = append(parseTimes, time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("cold experiment %d: %w", i, err)
		}
		return json.Marshal(runBody{Experiments: []json.RawMessage{exp}, Budget: coldBudget(q)})
	}

	measureStart := time.Now()
	sched := makeSchedule(cfg.seed, time.Duration(cfg.size.openShare*float64(cfg.window)), cfg.size)
	bodies := make([][]byte, len(sched))
	for i, q := range sched {
		if bodies[i], err = requestBody(q, i); err != nil {
			return err
		}
	}
	out, late, makespan := drive(client, svc.url, sched, bodies, cfg.workers, tr)
	tally := &simdTally{exps: exps, panelDig: panelDig, jobMs: map[bool][]float64{}, waitMs: map[bool][]float64{}}
	lat := map[string][]time.Duration{}
	for i, o := range out {
		lat[sched[i].Phase] = append(lat[sched[i].Phase], o.latency)
		tally.add(r, i, sched[i], o, true)
	}
	for _, phase := range []string{"lo", "hi"} {
		ms := durationsMs(lat[phase])
		p, ok := highestPercentile(len(ms))
		r.check(ok && p >= cfg.size.minTail, "%s: %d samples entitle only p%g, want p%g", phase, len(ms), p, cfg.size.minTail)
		r.note("simd-open %s at %g/s: n=%d p50=%.3fms p99=%.3fms from due time (highest percentile with 10 samples beyond: p%g)",
			phase, map[string]float64{"lo": cfg.size.loRate, "hi": cfg.size.hiRate}[phase], len(ms), median(ms), quantile(ms, 0.99), p)
	}
	lateMs := durationsMs(late)
	r.note("gen.late_ms p50=%.3f p99=%.3f (generator lateness)", median(lateMs), quantile(lateMs, 0.99))
	r.check(quantile(lateMs, 0.99) < maxGenLateMs, "generator p99 lateness %.3fms exceeds %gms: the run is invalid", quantile(lateMs, 0.99), maxGenLateMs)
	r.note("simd-open: %d open-loop requests (%d lo, %d hi), makespan %.3fs", len(sched), len(lat["lo"]), len(lat["hi"]), seconds(makespan))

	// Closed loop: bursts until the window is over. In a traced run
	// every other burst runs with the store and transport wrappers
	// switched off, for the tracing overhead.
	var bursts, tracedBursts []time.Duration
	err = repeat(cfg.window-time.Since(measureStart), cfg.size.minReps, func(rep int) error {
		traced := cfg.trace && rep%2 == 1
		if cfg.trace {
			ts.off.Store(!traced)
			tt.off.Store(!traced)
		}
		reqs := makeBurst(cfg.seed, rep, cfg.size)
		bodies := make([][]byte, len(reqs))
		for i, q := range reqs {
			b, err := requestBody(q, i)
			if err != nil {
				return err
			}
			bodies[i] = b
		}
		var bt *tracer
		if traced {
			bt = tr
		}
		root := bt.begin("simd-open.burst", fmt.Sprint(rep), -1)
		bt.setCurrent(root)
		outs, wall := burst(client, svc.url, bodies, cfg.workers)
		bt.end(root)
		for i, o := range outs {
			tally.add(r, i, reqs[i], o, false)
		}
		if traced {
			tracedBursts = append(tracedBursts, wall)
		} else {
			bursts = append(bursts, wall)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if cfg.trace {
		ts.off.Store(false)
		tt.off.Store(false)
		tr.setCurrent(-1)
	}

	r.set("setup_s", seconds(medianDur(setups)))
	r.set("wall_s", seconds(minDur(bursts)))
	if err := setCommon(r); err != nil {
		return err
	}
	r.note("simd-open: %d untraced bursts of %d requests %v, median %.4fs", len(bursts), cfg.size.burstN, bursts, seconds(medianDur(bursts)))
	if !cfg.trace {
		return nil
	}

	r.set("bench.trace_overhead_s", seconds(minDur(tracedBursts)-minDur(bursts)))
	r.set("experiments.claims_passed", float64(claims))
	r.set("server.requests", float64(tally.requests))
	r.set("server.rejected", float64(tally.rejected))
	r.set("simrun.points_executed", float64(tally.executed))
	r.set("simrun.points_cached", float64(tally.cached))
	r.set("simrun.store_gets", float64(ts.gets.Load()))
	r.set("simrun.store_hits", float64(ts.hits.Load()))
	r.bypassed("fleet.leases", "fleet.duplicate_executions")
	for cold, name := range map[bool]string{false: "warm", true: "cold"} {
		if len(tally.jobMs[cold]) > 0 {
			r.note("server.job_ms.%s %.4f ms, server.queue_wait_ms.%s %.4f ms (mean over %d)", name, mean(tally.jobMs[cold]), name, mean(tally.waitMs[cold]), len(tally.jobMs[cold]))
		}
	}
	r.note("experiments.parse_us %.3f us (median over %d)", micros(medianDur(parseTimes)), len(parseTimes))
	noteMean(r, tr, "simrun.store_get", "simrun.Store.Get")
	noteMean(r, tr, "simrun.store_put", "simrun.Store.Put")

	// Replay the open loop's cold points; each must be bit-identical to
	// the point the service returned.
	work := simrun.WorkloadSpec{Cluster: simrun.Global, Pattern: simrun.PatternSpec{Kind: simrun.Uniform}}
	items := make([]replayItem, len(tally.cold))
	var keyTime time.Duration
	for i, c := range tally.cold {
		rs := simrun.RunSpec{
			Net: experiments.TMINCube, Work: work, Load: coldLoad,
			Warmup: cfg.size.coldWarmup, Measure: cfg.size.coldMeasure,
			Seed: simrun.DeriveSeed(c.q.Seed, 0),
		}
		t := time.Now()
		key, err := rs.Key()
		keyTime += time.Since(t)
		if err != nil {
			return fmt.Errorf("key of %s: %w", rs, err)
		}
		items[i] = replayItem{key: key, family: "tmin-cube", spec: rs, point: c.pt}
	}
	if len(items) == 0 {
		return fmt.Errorf("no cold open-loop request to replay")
	}
	r.set("simrun.key_us", micros(keyTime)/float64(len(items)))
	if err := replay(items, tr, r); err != nil {
		return err
	}
	return writeTrace(cfg, tr, r)
}

// maxGenLateMs bounds the generator's p99 lateness. Latency counts from
// the due time, so lateness never hides in the figures; beyond about
// five mean hi-rate gaps, though, the generator bunches arrivals and
// the run no longer offers the scheduled load.
const maxGenLateMs = 20.0

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// drive sends every scheduled request at its due time over at most
// conns connections and returns each request's outcome, the
// generator's lateness per request and the makespan (schedule start to
// last completion).
func drive(client *http.Client, url string, sched []request, bodies [][]byte, conns int, tr *tracer) ([]outcome, []time.Duration, time.Duration) {
	out := make([]outcome, len(sched))
	late := make([]time.Duration, len(sched))
	queue := make(chan int, len(sched)) // one slot per scheduled request: the generator never blocks
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(sched[i].Due)
				sp := tr.begin("simd.request", fmt.Sprintf("%s-%d", sched[i].Phase, i), -1)
				t := time.Now()
				code, body, err := post(client, url, bodies[i])
				done := time.Now()
				tr.end(sp)
				out[i] = outcome{status: code, err: err, latency: done.Sub(due), rtt: done.Sub(t), body: body}
			}
		}()
	}
	for i, q := range sched {
		due := start.Add(q.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out, late, time.Since(start)
}

// burst sends every body as a closed loop over conns connections: each
// connection sends its next request when the previous reply is in. It
// returns each request's outcome and the time until the last reply.
func burst(client *http.Client, url string, bodies [][]byte, conns int) ([]outcome, time.Duration) {
	out := make([]outcome, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(bodies); i = int(next.Add(1) - 1) {
				t := time.Now()
				code, body, err := post(client, url, bodies[i])
				d := time.Since(t)
				out[i] = outcome{status: code, err: err, latency: d, rtt: d, body: body}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

type coldResult struct {
	q  request
	pt metrics.Point
}
