// Differential test of the engine's fast path. Fully routed worms
// coast along a closed-form trajectory and blocked worms sleep; with
// channel statistics enabled the engine walks every worm every cycle
// instead. Both must be observationally identical — Stats, the
// OnDeliver sequence and the latency histogram — on every network
// family, with deep buffers and with failed channels, under both
// arbitration modes, below and past saturation, on scalar engines and
// on ReplicaSet lanes. The invariants must hold on every cycle while
// worms coast, and each case must show that the fast path ran.
package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
	"minsim/internal/topology"
	"minsim/internal/traffic"
)

type fastCase struct {
	name      string
	spec      experiments.NetworkSpec
	depth     int
	failLayer int  // fail the first channel of this layer; 0 = none
	short     bool // 1-6 flit messages: worms fully injected before their head arrives
	coasts    bool // one channel per link and depth 1
}

func fastCases() []fastCase {
	return []fastCase{
		{name: "tmin-cube", spec: experiments.TMINCube, coasts: true},
		{name: "tmin-butterfly", spec: experiments.TMINButterfly, coasts: true},
		{name: "dmin-cube", spec: experiments.DMINCube, coasts: true},
		{name: "vmin-cube", spec: experiments.VMINCube},
		{name: "bmin-butterfly", spec: experiments.BMINButterfly, coasts: true},
		{name: "tmin-cube-depth2", spec: experiments.TMINCube, depth: 2},
		{name: "vmin-cube-depth2", spec: experiments.VMINCube, depth: 2},
		{name: "tmin-cube-failed", spec: experiments.TMINCube, failLayer: 2, coasts: true},
		{name: "dmin-cube-failed", spec: experiments.DMINCube, failLayer: 1, coasts: true},
		{name: "bmin-butterfly-failed", spec: experiments.BMINButterfly, failLayer: 1, coasts: true},
		{name: "tmin-cube-short", spec: experiments.TMINCube, short: true, coasts: true},
		{name: "bmin-butterfly-short", spec: experiments.BMINButterfly, short: true, coasts: true},
		{name: "vmin-cube-short", spec: experiments.VMINCube, short: true},
	}
}

func (c fastCase) build(t *testing.T) (*topology.Network, []int) {
	t.Helper()
	net, err := c.spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var failed []int
	if c.failLayer > 0 {
		for i := range net.Channels {
			if net.Channels[i].Layer == c.failLayer {
				failed = append(failed, i)
				break
			}
		}
	}
	return net, failed
}

// source builds the case's uniform workload at the given load.
func (c fastCase) source(t *testing.T, nodes int, load float64, seed uint64) engine.Source {
	t.Helper()
	if !c.short {
		return uniformSource(t, nodes, load, seed)
	}
	lengths := traffic.UniformLen{Min: 1, Max: 6}
	g := traffic.Global(nodes)
	rates, err := traffic.NodeRates(g, load, lengths.Mean(), nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := traffic.NewWorkload(traffic.Config{
		Nodes:   nodes,
		Pattern: traffic.Uniform{C: g},
		Lengths: lengths,
		Rates:   rates,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

type delivery struct {
	msg       engine.Message
	completed int64
}

type fastRun struct {
	stats     engine.Stats
	delivered []delivery
	hist      engine.Histogram
	coasted   int // most worms coasting at once
	slept     int // most worms asleep at once
}

const (
	fastWarmup  = 300
	fastCycles  = 2000
	fastLowLoad = 0.2
	fastSatLoad = 0.9
)

// runFast runs one case; reference selects the per-cycle walk.
// Invariants are checked after every cycle of the fast path.
func runFast(t *testing.T, c fastCase, arb engine.Arbitration, load float64, seed uint64, reference bool) fastRun {
	t.Helper()
	net, failed := c.build(t)
	var r fastRun
	e, err := engine.New(engine.Config{
		Net:            net,
		Source:         c.source(t, net.Nodes, load, seed),
		Seed:           seed + 100,
		Arbitration:    arb,
		BufferDepth:    c.depth,
		FailedChannels: failed,
		OnDeliver: func(m engine.Message, at int64) {
			r.delivered = append(r.delivered, delivery{m, at})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.EnableLatencyHistogram(&r.hist)
	if reference {
		e.EnableChannelStats()
	}
	e.SetMeasureFrom(fastWarmup)
	for i := 0; i < fastCycles; i++ {
		e.Step()
		if reference {
			continue
		}
		co, as := e.FastPathWorms()
		r.coasted = max(r.coasted, co)
		r.slept = max(r.slept, as)
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d (%d coasting, %d asleep): %v", e.Now(), co, as, err)
		}
	}
	r.stats = e.Stats()
	return r
}

var arbModes = []struct {
	name string
	arb  engine.Arbitration
}{{"random", engine.ArbitrateRandom}, {"oldest", engine.ArbitrateOldestFirst}}

func TestFastPathMatchesPerCycleWalk(t *testing.T) {
	for _, c := range fastCases() {
		for _, a := range arbModes {
			for _, load := range []float64{fastLowLoad, fastSatLoad} {
				t.Run(fmt.Sprintf("%s/%s/%.1f", c.name, a.name, load), func(t *testing.T) {
					fast := runFast(t, c, a.arb, load, 11, false)
					ref := runFast(t, c, a.arb, load, 11, true)
					if fast.stats != ref.stats {
						t.Errorf("Stats differ:\nfast: %+v\nref:  %+v", fast.stats, ref.stats)
					}
					if !reflect.DeepEqual(fast.delivered, ref.delivered) {
						t.Errorf("OnDeliver sequences differ (%d vs %d deliveries)", len(fast.delivered), len(ref.delivered))
					}
					if !reflect.DeepEqual(fast.hist, ref.hist) {
						t.Errorf("latency histograms differ (%d vs %d samples)", fast.hist.Count(), ref.hist.Count())
					}
					if fast.stats.MeasuredMsgs == 0 {
						t.Error("nothing measured; the comparison is vacuous")
					}
					if c.coasts != (fast.coasted > 0) {
						t.Errorf("coasting worms seen: %d, want coasting %v", fast.coasted, c.coasts)
					}
					if load == fastSatLoad && fast.slept == 0 {
						t.Error("no worm slept past saturation")
					}
				})
			}
		}
	}
}

// TestFastPathReplicaLanes runs the same cases through a ReplicaSet —
// one lane below and one past saturation, invariants checked every
// lockstep cycle — against per-cycle scalar references.
func TestFastPathReplicaLanes(t *testing.T) {
	for _, c := range fastCases() {
		for _, a := range arbModes {
			t.Run(c.name+"/"+a.name, func(t *testing.T) {
				net, failed := c.build(t)
				loads := []float64{fastLowLoad, fastSatLoad}
				cfg := engine.ReplicaConfig{
					Net:            net,
					Arbitration:    a.arb,
					BufferDepth:    c.depth,
					FailedChannels: failed,
				}
				for i, load := range loads {
					seed := uint64(21 + i)
					cfg.Lanes = append(cfg.Lanes, engine.LaneConfig{
						Source: c.source(t, net.Nodes, load, seed),
						Seed:   seed + 100,
					})
				}
				rs, err := engine.NewReplicaSet(cfg)
				if err != nil {
					t.Fatal(err)
				}
				rs.SetMeasureFrom(fastWarmup)
				coasted := 0
				for i := 0; i < fastCycles; i++ {
					rs.Step()
					for r := range loads {
						co, _ := rs.Lane(r).FastPathWorms()
						coasted = max(coasted, co)
					}
					if err := rs.CheckInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", rs.Now(), err)
					}
				}
				for r, load := range loads {
					ref := runFast(t, c, a.arb, load, uint64(21+r), true)
					if got := rs.Stats(r); got != ref.stats {
						t.Errorf("lane %d: Stats differ:\nlane: %+v\nref:  %+v", r, got, ref.stats)
					}
				}
				if c.coasts != (coasted > 0) {
					t.Errorf("coasting worms seen: %d, want coasting %v", coasted, c.coasts)
				}
			})
		}
	}
}

// TestChannelStatsMidRun: enabling channel statistics while worms
// coast writes their closed-form occupancy back and continues on the
// per-cycle walk with no observable difference.
func TestChannelStatsMidRun(t *testing.T) {
	for _, c := range []fastCase{fastCases()[0], fastCases()[4]} {
		net, _ := c.build(t)
		e, err := engine.New(engine.Config{Net: net, Source: c.source(t, net.Nodes, fastSatLoad, 31), Seed: 131})
		if err != nil {
			t.Fatal(err)
		}
		e.SetMeasureFrom(fastWarmup)
		// Step, not Run, like the reference: Run would credit the idle
		// start to IdleSkipped.
		for e.Now() < fastCycles/2 {
			e.Step()
		}
		if co, _ := e.FastPathWorms(); co == 0 {
			t.Fatalf("%s: no worm coasting when channel statistics are enabled", c.name)
		}
		e.EnableChannelStats()
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: after enabling channel statistics: %v", c.name, err)
		}
		for e.Now() < fastCycles {
			e.Step()
		}
		ref := runFast(t, c, engine.ArbitrateRandom, fastSatLoad, 31, true)
		if e.Stats() != ref.stats {
			t.Errorf("%s: Stats differ:\nmid-run: %+v\nref:     %+v", c.name, e.Stats(), ref.stats)
		}
		if co, as := e.FastPathWorms(); co+as != 0 {
			t.Errorf("%s: %d coasting and %d asleep after enabling channel statistics", c.name, co, as)
		}
	}
}
