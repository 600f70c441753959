package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"sync"
	"time"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/metrics"
	"minsim/internal/report"
	"minsim/internal/routing"
	"minsim/internal/simrun"
	"minsim/internal/topology"
)

// The ten paper panels fig16a–fig20b request 352 load points, of which
// 312 are unique once identical points shared across panels are
// deduplicated.
const (
	paperRequested = 352
	paperUnique    = 312
	paperClaims    = 24
)

// deriveSeed maps the workload seed and a purpose tag to a nonzero
// seed (splitmix64 over the seed and an FNV hash of the tag).
func deriveSeed(seed uint64, tag string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tag); i++ {
		h ^= uint64(tag[i])
		h *= 1099511628211
	}
	z := seed ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// fingerprint computes the engine fingerprint, which every plan needs
// before its first key; the first call in a process does the work.
func fingerprint(r *runReport) (time.Duration, error) {
	t := time.Now()
	if _, err := simrun.Fingerprint(); err != nil {
		return 0, fmt.Errorf("fingerprint: %w", err)
	}
	d := time.Since(t)
	r.set("simrun.fingerprint_ms", millis(d))
	return d, nil
}

// paperPlan is one assembled, not yet executed, plan of the ten panels.
type paperPlan struct {
	plan    *simrun.Plan
	handles []*experiments.FigureHandle
}

func assemblePaper(exps []experiments.Experiment, b experiments.Budget) paperPlan {
	p := paperPlan{plan: simrun.NewPlan(), handles: make([]*experiments.FigureHandle, len(exps))}
	for i, e := range exps {
		p.handles[i] = experiments.AddToPlan(p.plan, e, b)
	}
	return p
}

func (p paperPlan) figures() ([]metrics.Figure, error) {
	figs := make([]metrics.Figure, len(p.handles))
	for i, fh := range p.handles {
		fig, err := fh.Figure()
		if err != nil {
			return nil, err
		}
		figs[i] = fig
	}
	return figs, nil
}

// digestFigures hashes the figures' CSV bytes and every point's exact
// field values.
func digestFigures(figs []metrics.Figure) string {
	h := sha256.New()
	for _, f := range figs {
		h.Write([]byte(f.CSV()))
		for _, s := range f.Series {
			for _, p := range s.Points {
				writePointBits(h, p)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writePointBits writes every field of p, floats by bit pattern, so
// two points hash alike only when they are bit-identical.
func writePointBits(w interface{ Write([]byte) (int, error) }, p metrics.Point) {
	v := reflect.ValueOf(p)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			fmt.Fprintf(w, "%x;", math.Float64bits(f.Float()))
		default:
			fmt.Fprintf(w, "%v;", f.Interface())
		}
	}
}

func samePoint(a, b metrics.Point) bool {
	ha, hb := sha256.New(), sha256.New()
	writePointBits(ha, a)
	writePointBits(hb, b)
	return string(ha.Sum(nil)) == string(hb.Sum(nil))
}

// evaluateClaims counts the paper claims the figures pass and checks
// that every one of the 24 was evaluated.
func evaluateClaims(exps []experiments.Experiment, figs []metrics.Figure, r *runReport) int {
	passed, evaluated := 0, 0
	for i, e := range exps {
		res := report.Evaluate(figs[i], e.Expect)
		passed += res.Passed
		evaluated += res.Passed + res.Failed
		for _, c := range res.Checks {
			r.note("claim %s: %s", e.ID, c)
		}
	}
	r.check(evaluated == paperClaims, "claims: evaluated %d of %d", evaluated, paperClaims)
	return passed
}

// planTiming records, for a traced rep, when the first point started
// and the last finished, from the plan's progress callbacks. The plan
// may call back from several workers at once, hence the mutex.
type planTiming struct {
	mu          sync.Mutex
	first, done time.Time
}

func (pt *planTiming) observe(c simrun.Counters) {
	now := time.Now()
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if c.Running > 0 && pt.first.IsZero() {
		pt.first = now
	}
	if c.Done == c.Unique && now.After(pt.done) {
		pt.done = now
	}
}

// runPaperCold regenerates the ten paper panels from an empty store,
// rep after rep, for the measurement window.
func runPaperCold(cfg config, r *runReport) error {
	exps := experiments.Figures()
	b := experiments.Budget{
		WarmupCycles:  cfg.size.paperWarmup,
		MeasureCycles: cfg.size.paperMeasure,
		Seed:          deriveSeed(cfg.seed, "paper-cold"),
	}
	fp, err := fingerprint(r)
	if err != nil {
		return err
	}
	tr := newTracer()
	var (
		setups, walls, tracedWalls []time.Duration
		digest                     string
		figs                       []metrics.Figure
		overheads, assembles       []float64
		gets, hits                 int64
		executed, cached           int64
	)
	err = repeat(cfg.window, cfg.size.minReps, func(rep int) error {
		traced := cfg.trace && rep%2 == 1
		var rt *tracer
		if traced {
			rt = tr
		}
		root := rt.begin("paper-cold.rep", fmt.Sprint(rep), -1)
		rt.setCurrent(root)
		defer rt.end(root)

		t0 := time.Now()
		dir, err := mkScratch(cfg, "store")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		disk, err := simrun.NewStore(dir)
		if err != nil {
			return err
		}
		var store simrun.Store = disk
		var ts *tracedStore
		if traced {
			ts = &tracedStore{inner: disk, tr: tr}
			store = ts
		}
		asm := rt.begin("experiments.AddToPlan", "", root)
		tAsm := time.Now()
		p := assemblePaper(exps, b)
		asmDur := time.Since(tAsm)
		rt.end(asm)
		setup := time.Since(t0)
		if rep == 0 {
			setup += fp
		}
		setups = append(setups, setup)

		var timing planTiming
		opts := simrun.Options{Workers: cfg.workers, Store: store}
		if traced {
			opts.Progress = timing.observe
		}
		t1 := time.Now()
		exe := rt.begin("simrun.Plan.Execute", "", root)
		err = p.plan.Execute(context.Background(), opts)
		rt.end(exe)
		if err != nil {
			return err
		}
		fg := rt.begin("experiments.Figure", "", root)
		tFig := time.Now()
		got, err := p.figures()
		figDur := time.Since(tFig)
		rt.end(fg)
		wall := time.Since(t1)
		if err != nil {
			return err
		}

		c := p.plan.Counters()
		r.attempted += int64(c.Unique)
		r.failed += int64(c.Failed)
		r.check(c.Requested == paperRequested && c.Unique == paperUnique && c.Executed == paperUnique && c.Cached == 0 && c.Failed == 0,
			"rep %d: plan counters %+v, want %d requested, %d unique, all executed cold", rep, c, paperRequested, paperUnique)
		d := digestFigures(got)
		if rep == 0 {
			digest, figs = d, got
		}
		r.check(d == digest, "rep %d: figures digest %s differs from rep 0's %s", rep, d, digest)

		if traced {
			tracedWalls = append(tracedWalls, wall)
			if !timing.first.IsZero() && !timing.done.IsZero() {
				overheads = append(overheads, seconds(wall-timing.done.Sub(timing.first)))
			}
			assembles = append(assembles, millis(asmDur+figDur))
			gets += ts.gets.Load()
			hits += ts.hits.Load()
			executed += int64(c.Executed)
			cached += int64(c.Cached)
		} else {
			walls = append(walls, wall)
		}
		return nil
	})
	if err != nil {
		return err
	}

	r.set("setup_s", seconds(medianDur(setups)))
	r.set("wall_s", seconds(minDur(walls)))
	claims := evaluateClaims(exps, figs, r)
	if err := setCommon(r); err != nil {
		return err
	}
	r.note("paper-cold: %d untraced reps %v, median %.3fs; budget %d+%d cycles, seed %d, digest %s",
		len(walls), walls, seconds(medianDur(walls)), b.WarmupCycles, b.MeasureCycles, b.Seed, digest[:16])
	if !cfg.trace {
		return nil
	}

	tracedReps := float64(len(tracedWalls))
	r.set("bench.trace_overhead_s", seconds(minDur(tracedWalls)-minDur(walls)))
	r.set("experiments.claims_passed", float64(claims))
	r.set("simrun.store_gets", float64(gets)/tracedReps)
	r.set("simrun.store_hits", float64(hits)/tracedReps)
	r.set("simrun.points_executed", float64(executed)/tracedReps)
	r.set("simrun.points_cached", float64(cached)/tracedReps)
	r.bypassed("server.requests", "server.rejected", "fleet.leases", "fleet.duplicate_executions")
	if len(overheads) > 0 {
		r.note("simrun.plan_overhead_s %.4f s (rep wall minus first point start to last point done, median)", median(overheads))
	}
	r.note("experiments.assemble_ms %.4f ms (AddToPlan plus Figure, median)", median(assembles))
	noteMean(r, tr, "simrun.store_get", "simrun.Store.Get")
	noteMean(r, tr, "simrun.store_put", "simrun.Store.Put")

	items, keyMean := uniquePaperSpecs(exps, b, figs, r)
	r.set("simrun.key_us", micros(keyMean))
	if err := replay(items, tr, r); err != nil {
		return err
	}
	return writeTrace(cfg, tr, r)
}

// replayItem is one point a workload's plan or service produced, with
// the spec it was run from: the traced run replays it outside the
// program's plan.
type replayItem struct {
	key    string
	family string // network family, for the per-family notes
	spec   simrun.RunSpec
	point  metrics.Point
}

// uniquePaperSpecs rebuilds the plan's unique RunSpecs the way
// experiments.AddToPlan derives them, timing RunSpec.Key, and pairs
// each with the figure point the plan returned for it.
func uniquePaperSpecs(exps []experiments.Experiment, b experiments.Budget, figs []metrics.Figure, r *runReport) ([]replayItem, time.Duration) {
	families := map[simrun.NetworkSpec]string{}
	for _, ns := range experiments.PaperSpecs() {
		families[ns.Spec] = ns.Name
	}
	var out []replayItem
	var keyTime time.Duration
	keyCalls := 0
	seen := map[string]bool{}
	for ei, e := range exps {
		for ci, c := range e.Curves {
			for li, load := range e.Loads {
				rs := simrun.RunSpec{
					Net: c.Net, Work: c.Work, Load: load,
					Warmup: b.WarmupCycles, Measure: b.MeasureCycles,
					Seed:        simrun.DeriveReplicaSeed(b.Seed, li, 0),
					QueueLimit:  b.QueueLimit,
					BufferDepth: c.BufferDepth, Arbitration: c.Arbitration,
				}
				t := time.Now()
				key, err := rs.Key()
				keyTime += time.Since(t)
				keyCalls++
				if err != nil {
					r.check(false, "key of %s: %v", rs, err)
					continue
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				out = append(out, replayItem{key: key, family: families[c.Net], spec: rs, point: figs[ei].Series[ci].Points[li]})
			}
		}
	}
	r.check(keyCalls == paperRequested && len(out) == paperUnique, "replay: %d keys, %d unique, want %d and %d", keyCalls, len(out), paperRequested, paperUnique)
	return out, keyTime / time.Duration(max(keyCalls, 1))
}

// replay re-runs every item twice, serially and outside the program's
// plan or service: once through PointConfig.Simulate with a wrapped
// factory and source, once straight on engine.New to time the engine
// and read its counters. Both results must be bit-identical to the
// item's point, so the per-layer numbers describe the program that
// produced it. It records the engine, topology, routing and traffic
// metrics. The replay runs the scalar engine while a plan batches
// same-network points into replica sets, so its engine time is not the
// plan's, and no engine busy share is derived from it.
func replay(items []replayItem, tr *tracer, r *runReport) error {
	root := tr.begin("replay", "", -1)
	defer tr.end(root)
	nets := map[simrun.NetworkSpec]*topology.Network{}
	var buildTime, factTime time.Duration
	for _, it := range items {
		if _, ok := nets[it.spec.Net]; ok {
			continue
		}
		i := tr.begin("simrun.NetworkSpec.Build", it.spec.Net.String(), root)
		net, err := it.spec.Net.Build()
		buildTime += tr.end(i)
		if err != nil {
			return err
		}
		nets[it.spec.Net] = net
		i = tr.begin("routing.FactoredFor", it.spec.Net.String(), root)
		routing.FactoredFor(net, nil)
		factTime += tr.end(i)
	}
	r.set("topology.build_ms", millis(buildTime)/float64(len(nets)))
	r.set("routing.factored_ms", millis(factTime)/float64(len(nets)))

	var src sourceStats
	for _, it := range items {
		net := nets[it.spec.Net]
		i := tr.begin("simrun.PointConfig.Simulate", it.key, root)
		pt, err := simrun.PointConfig{
			Net:         net,
			Factory:     wrapFactory(it.spec.Work.Factory(net), &src),
			Load:        it.spec.Load,
			Seed:        it.spec.Seed,
			Warmup:      it.spec.Warmup,
			Measure:     it.spec.Measure,
			QueueLimit:  it.spec.QueueLimit,
			BufferDepth: it.spec.BufferDepth,
			Arbitration: it.spec.Arbitration,
		}.Simulate()
		tr.end(i)
		if err != nil {
			return err
		}
		r.check(samePoint(pt, it.point), "replay of %s differs from the program's result", it.spec)
	}
	setTraffic(r, &src)

	var total engineRun
	famTime := map[string]time.Duration{}
	famCycles := map[string]int64{}
	routingBytes := map[simrun.NetworkSpec]int{}
	for _, it := range items {
		er, err := runEngine(nets[it.spec.Net], it.spec, tr, root)
		if err != nil {
			return err
		}
		r.check(samePoint(er.pt, it.point), "engine replay of %s differs from the program's result", it.spec)
		total.add(er)
		famTime[it.family] += er.runDur
		famCycles[it.family] += er.st.Cycles
		routingBytes[it.spec.Net] = er.routingBytes
	}
	for fam, d := range famTime {
		r.note("engine ns/cycle %-16s %10.1f", fam, float64(d)/float64(famCycles[fam]))
	}
	bytes := 0
	for _, b := range routingBytes {
		bytes += b
	}
	r.set("routing.bytes", float64(bytes))
	setEngine(r, total, len(items))
	return nil
}

// setTraffic records the traffic layer's metrics from wrapped sources.
func setTraffic(r *runReport, src *sourceStats) {
	r.set("traffic.next_calls", float64(src.nextCalls))
	r.set("traffic.next_ns", float64(src.sampledTime)/float64(max(src.sampled, 1)))
	r.set("traffic.factory_ms", millis(src.factoryTime)/float64(max(src.factoryCalls, 1)))
}

// engineSeedSalt is the constant PointConfig.Simulate mixes into a
// point's seed for the engine's arbitration stream; runEngine must use
// the same one, and the bit-identity checks catch any drift.
const engineSeedSalt = 0xd1b54a32d192ed03

// engineRun is what one or more runs straight on engine.New measured.
type engineRun struct {
	st             engine.Stats
	pt             metrics.Point
	newDur, runDur time.Duration
	routingBytes   int
}

func (a *engineRun) add(b engineRun) {
	a.st.Cycles += b.st.Cycles
	a.st.DeliveredFlits += b.st.DeliveredFlits
	a.st.InjectedFlits += b.st.InjectedFlits
	a.st.IdleSkipped += b.st.IdleSkipped
	a.st.StallCycles += b.st.StallCycles
	a.newDur += b.newDur
	a.runDur += b.runDur
}

// runEngine simulates one spec straight on engine.New, returning the
// engine's counters, the curve point they reduce to and the time
// engine.New and Engine.Run took. With a tracer it records engine.New
// and Engine.Run spans under parent.
func runEngine(net *topology.Network, rs simrun.RunSpec, tr *tracer, parent int) (engineRun, error) {
	src, err := rs.Work.Factory(net)(rs.Load, rs.Seed)
	if err != nil {
		return engineRun{}, err
	}
	i := tr.begin("engine.New", "", parent)
	t := time.Now()
	e, err := engine.New(engine.Config{
		Net: net, Source: src, Seed: rs.Seed ^ engineSeedSalt,
		QueueLimit: rs.QueueLimit, BufferDepth: rs.BufferDepth, Arbitration: rs.Arbitration,
	})
	newDur := time.Since(t)
	tr.end(i)
	if err != nil {
		return engineRun{}, err
	}
	e.SetMeasureFrom(rs.Warmup)
	i = tr.begin("engine.Engine.Run", "", parent)
	t = time.Now()
	e.Run(rs.Warmup + rs.Measure)
	runDur := time.Since(t)
	tr.end(i)
	st := e.Stats()
	return engineRun{st: st, pt: metrics.FromStats(rs.Load, net.Nodes, st), newDur: newDur, runDur: runDur, routingBytes: e.RoutingBytes()}, nil
}

// setEngine records the engine's time per cycle and per construction
// over runs engine runs, and its work counters.
func setEngine(r *runReport, total engineRun, runs int) {
	st := total.st
	r.set("engine.ns_per_cycle", float64(total.runDur)/float64(st.Cycles))
	r.set("engine.new_ms", millis(total.newDur)/float64(runs))
	r.set("engine.cycles", float64(st.Cycles))
	r.set("engine.delivered_flits", float64(st.DeliveredFlits))
	r.set("engine.injected_flits", float64(st.InjectedFlits))
	r.set("engine.idle_skipped_share", float64(st.IdleSkipped)/float64(st.Cycles))
	r.set("engine.stall_share", float64(st.StallCycles)/float64(st.Cycles))
}

// setCommon records the metrics every workload reports.
func setCommon(r *runReport) error {
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	ok := 1.0
	if r.attempted > 0 {
		ok = float64(r.attempted-r.failed) / float64(r.attempted)
	}
	r.set("ok_ratio", ok)
	return nil
}

// noteMean notes the mean duration of the named spans: a per-layer
// timing that only some workloads have.
func noteMean(r *runReport, tr *tracer, label, spanName string) {
	if ms, ok := tr.meanMs(spanName); ok {
		r.note("%-36s %10.4f ms mean over %d", label, ms, len(tr.durations(spanName)))
	}
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// writeTrace writes the spans next to the run's scratch directory and
// prints each span name's count, total and self time.
func writeTrace(cfg config, tr *tracer, r *runReport) error {
	for _, s := range tr.selfTimes() {
		r.note("span %-32s n=%-7d total=%10.3fms self=%10.3fms", s.Name, s.Count, millis(s.Total), millis(s.Self))
	}
	path := cfg.workdir + ".spans.jsonl"
	if err := tr.writeSpans(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.note("spans: %s", path)
	return nil
}
