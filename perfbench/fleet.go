package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"minsim/internal/experiments"
	"minsim/internal/fleet"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// fleetRig is one booted fleet: a coordinator over a fresh DiskStore
// served on loopback, and one worker polling it.
type fleetRig struct {
	coord  *fleet.Coordinator
	dir    string // the store's directory, removed by stop
	store  simrun.Store
	ts     *tracedStore     // traced rigs only
	tt     *tracedTransport // traced rigs only
	http   *http.Server
	url    string
	client *http.Client
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// firstLease wraps the worker's transport and closes ready after the
// worker's first lease poll has been answered: the worker is then
// registered and idle, polling every lease wait interval.
type firstLease struct {
	inner http.RoundTripper
	once  sync.Once
	ready chan struct{}
}

func (f *firstLease) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.inner.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, "/fleet/v1/lease") {
		f.once.Do(func() { close(f.ready) })
	}
	return resp, err
}

func bootFleet(cfg config, tr *tracer) (*fleetRig, error) {
	dir, err := mkScratch(cfg, "fleet-store")
	if err != nil {
		return nil, err
	}
	disk, err := simrun.NewStore(dir)
	if err != nil {
		return nil, err
	}
	rig := &fleetRig{dir: dir, store: disk}
	if tr != nil {
		rig.ts = &tracedStore{inner: disk, tr: tr}
		rig.store = rig.ts
	}
	if rig.coord, err = fleet.NewCoordinator(fleet.Config{Store: rig.store}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.url = "http://" + ln.Addr().String()
	rig.http = &http.Server{Handler: rig.coord.Handler()}
	rig.wg.Add(1)
	go func() {
		defer rig.wg.Done()
		rig.http.Serve(ln)
	}()

	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: cfg.workers, MaxIdleConnsPerHost: cfg.workers}
	if tr != nil {
		rig.tt = &tracedTransport{inner: rt, tr: tr}
		rt = rig.tt
	}
	fl := &firstLease{inner: rt, ready: make(chan struct{})}
	rig.client = &http.Client{Transport: fl, Timeout: 30 * time.Second}
	wk, err := fleet.NewWorker(fleet.WorkerConfig{Coordinator: rig.url, Name: "w0", SimWorkers: cfg.workers, Client: rig.client})
	if err != nil {
		rig.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rig.cancel = cancel
	rig.wg.Add(1)
	go func() {
		defer rig.wg.Done()
		wk.Run(ctx)
	}()
	select {
	case <-fl.ready:
		return rig, nil
	case <-time.After(30 * time.Second):
		rig.stop()
		return nil, fmt.Errorf("fleet worker did not poll within 30s")
	}
}

// stop stops the worker and the coordinator's listener, waits for
// both, and removes the store.
func (rig *fleetRig) stop() {
	if rig.cancel != nil {
		rig.cancel()
	}
	rig.http.Close()
	rig.wg.Wait()
	rig.client.CloseIdleConnections()
	os.RemoveAll(rig.dir)
}

// coordinatorCounter reads one counter from the coordinator's
// Prometheus text, the body of the fleet part of /metrics.
func coordinatorCounter(c *fleet.Coordinator, name string) (int64, error) {
	var buf bytes.Buffer
	c.WriteMetrics(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// runFleetCold runs the 312-point paper plan at a tiny budget through
// an in-process coordinator and one worker on loopback, from an empty
// store each rep.
func runFleetCold(cfg config, r *runReport) error {
	exps := experiments.Figures()
	b := experiments.Budget{
		WarmupCycles:  cfg.size.fleetWarmup,
		MeasureCycles: cfg.size.fleetMeasure,
		Seed:          deriveSeed(cfg.seed, "fleet-cold"),
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
		leases, empty, executed    int64
		cached, gets, hits, dups   int64
	)
	err = repeat(cfg.window, cfg.size.minReps, func(rep int) error {
		var rt *tracer
		if cfg.trace && rep%2 == 1 {
			rt = tr
		}
		root := rt.begin("fleet-cold.rep", fmt.Sprint(rep), -1)
		rt.setCurrent(root)
		defer rt.end(root)

		t0 := time.Now()
		rig, err := bootFleet(cfg, rt)
		if err != nil {
			return err
		}
		defer rig.stop()
		p := assemblePaper(exps, b)
		setup := time.Since(t0)
		if rep == 0 {
			setup += fp
		}
		setups = append(setups, setup)

		t1 := time.Now()
		err = p.plan.Execute(context.Background(), simrun.Options{Workers: cfg.workers, Store: rig.store, Dispatcher: rig.coord})
		if err != nil {
			return err
		}
		got, err := p.figures()
		wall := time.Since(t1)
		if err != nil {
			return err
		}

		c := p.plan.Counters()
		r.attempted += int64(c.Unique)
		r.failed += int64(c.Failed)
		r.check(c.Requested == paperRequested && c.Unique == paperUnique && c.Executed == paperUnique && c.Cached == 0 && c.Failed == 0,
			"rep %d: plan counters %+v, want %d requested, %d unique, all executed cold", rep, c, paperRequested, paperUnique)
		dup, err := coordinatorCounter(rig.coord, "fleet_duplicate_executions_total")
		r.check(err == nil && dup == 0, "rep %d: duplicate executions %d (%v)", rep, dup, err)
		d := digestFigures(got)
		if rep == 0 {
			digest, figs = d, got
		}
		r.check(d == digest, "rep %d: figures digest %s differs from rep 0's %s", rep, d, digest)
		if rt != nil {
			tracedWalls = append(tracedWalls, wall)
			leases += rig.tt.leases.Load() - rig.tt.emptyLeases.Load()
			empty += rig.tt.emptyLeases.Load()
			executed += int64(c.Executed)
			cached += int64(c.Cached)
			gets += rig.ts.gets.Load()
			hits += rig.ts.hits.Load()
			dups += dup
		} else {
			walls = append(walls, wall)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The same plan on the local worker pool must give byte-identical
	// figures.
	local := assemblePaper(exps, b)
	if err := local.plan.Execute(context.Background(), simrun.Options{Workers: cfg.workers}); err != nil {
		return err
	}
	lf, err := local.figures()
	if err != nil {
		return err
	}
	r.check(digestFigures(lf) == digest, "fleet figures differ from the same plan run locally")

	r.set("setup_s", seconds(medianDur(setups)))
	r.set("wall_s", seconds(minDur(walls)))
	claims := evaluateClaims(exps, figs, r)
	if err := setCommon(r); err != nil {
		return err
	}
	r.note("fleet-cold: %d untraced reps %v, median %.3fs; budget %d+%d cycles, digest %s",
		len(walls), walls, seconds(medianDur(walls)), b.WarmupCycles, b.MeasureCycles, digest[:16])
	if !cfg.trace {
		return nil
	}

	n := float64(len(tracedWalls))
	r.set("bench.trace_overhead_s", seconds(minDur(tracedWalls)-minDur(walls)))
	r.set("experiments.claims_passed", float64(claims))
	r.set("fleet.leases", float64(leases)/n)
	r.set("fleet.duplicate_executions", float64(dups))
	r.set("simrun.points_executed", float64(executed)/n)
	r.set("simrun.points_cached", float64(cached)/n)
	r.set("simrun.store_gets", float64(gets)/n)
	r.set("simrun.store_hits", float64(hits)/n)
	// The fleet has its own HTTP handler; simd's server is not involved.
	r.bypassed("server.requests", "server.rejected")
	r.note("fleet.empty_lease_ratio %.4f (%d empty of %d lease polls)", float64(empty)/float64(leases+empty), empty, leases+empty)
	noteMean(r, tr, "simrun.store_get", "simrun.Store.Get")
	noteMean(r, tr, "simrun.store_put", "simrun.Store.Put")
	noteMean(r, tr, "fleet.lease_rtt", "fleet.lease")
	noteMean(r, tr, "fleet.complete_rtt", "fleet.complete")
	noteMean(r, tr, "fleet.store_get_rtt", "fleet.store.get")
	noteMean(r, tr, "fleet.store_put_rtt", "fleet.store.put")
	if err := probeHeartbeats(cfg, tr, r); err != nil {
		return err
	}

	items, keyMean := uniquePaperSpecs(exps, b, figs, r)
	r.set("simrun.key_us", micros(keyMean))
	t := time.Now()
	for _, it := range items {
		if _, err := fleet.EncodeSpec(it.spec); err != nil {
			return err
		}
	}
	r.note("fleet.wire_encode_us %.3f us (EncodeSpec, mean over %d)", micros(time.Since(t))/float64(len(items)), len(items))

	if err := replay(items, tr, r); err != nil {
		return err
	}
	return writeTrace(cfg, tr, r)
}

// heartbeatProbes is how many heartbeat round trips the traced run
// times. A worker heartbeats every third of the lease TTL (10s by
// default), far longer than any lease of this workload runs, so the
// measured run itself sends none; the probes time the endpoint over
// the same loopback transport instead.
const heartbeatProbes = 50

func probeHeartbeats(cfg config, tr *tracer, r *runReport) error {
	rig, err := bootFleet(cfg, tr)
	if err != nil {
		return err
	}
	defer rig.stop()
	tr.setCurrent(-1)
	body := []byte(`{"worker_id":"probe","lease_id":"none"}`)
	for i := 0; i < heartbeatProbes; i++ {
		resp, err := rig.client.Post(rig.url+"/fleet/v1/heartbeat", "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("heartbeat probe: %w", err)
		}
		resp.Body.Close()
		r.check(resp.StatusCode == http.StatusGone, "heartbeat probe for an unknown lease: status %d, want 410", resp.StatusCode)
	}
	noteMean(r, tr, "fleet.heartbeat_rtt", "fleet.heartbeat")
	return nil
}

func minDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	m := ds[0]
	for _, d := range ds[1:] {
		m = min(m, d)
	}
	return m
}
