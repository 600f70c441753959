package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinySize runs every workload through all of its code paths in well
// under a second of simulation each.
var tinySize = sizes{
	minReps:      2, // one untraced and one traced rep in a traced run
	setupReps:    2,
	paperWarmup:  50,
	paperMeasure: 150,
	fleetWarmup:  50,
	fleetMeasure: 100,
	warmWarmup:   50,
	warmMeasure:  100,
	coldWarmup:   100,
	coldMeasure:  300,
	loRate:       200,
	hiRate:       400,
	block:        50 * time.Millisecond,
	minPhaseN:    30,
	coldEvery:    5,
	minTail:      50,
	openShare:    0.5,
	burstN:       10,
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{40, 75, true},
		{20, 50, true},
		{19, 0, false},
	} {
		p, ok := highestPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %g, %t; want %g, %t", c.n, p, ok, c.p, c.ok)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := median(xs); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %g, want 2", got)
	}
	if got := quantile([]float64{1, 2}, 0.99); got != 1.99 {
		t.Errorf("q99 of {1,2} = %g, want 1.99", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 3, 2, 4}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	window := 20 * time.Second
	a := makeSchedule(7, window, fullSize)
	b := makeSchedule(7, window, fullSize)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, makeSchedule(8, window, fullSize)) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
	counts := map[string]int{}
	cold := 0
	for i, q := range a {
		counts[q.Phase]++
		if q.Cold {
			cold++
		}
		if i > 0 && q.Due <= a[i-1].Due {
			t.Fatalf("request %d is not due after request %d", i, i-1)
		}
	}
	if counts["lo"] != 1100 || counts["hi"] != 2250 {
		t.Errorf("phase counts %v, want lo 1100 and hi 2250 for a 20s window", counts)
	}
	if p, ok := highestPercentile(counts["lo"]); !ok || p < fullSize.minTail {
		t.Errorf("lo phase entitles p%g, want p%g", p, fullSize.minTail)
	}
	if want := len(a) / fullSize.coldEvery; cold < want || cold > want+1 {
		t.Errorf("%d cold requests of %d, want one in %d", cold, len(a), fullSize.coldEvery)
	}
	// Each one-second block holds one phase at its rate, and the phases
	// interleave: the lo blocks are spread over the whole schedule.
	perBlock := map[string]int{"lo": 100, "hi": 250}
	loFirstHalf := 0
	for b := 0; b < 20; b++ {
		n, phase := 0, ""
		for _, q := range a {
			if q.Due >= time.Duration(b)*time.Second && q.Due < time.Duration(b+1)*time.Second {
				n++
				if phase != "" && q.Phase != phase {
					t.Fatalf("block %d mixes phases", b)
				}
				phase = q.Phase
			}
		}
		if n != perBlock[phase] {
			t.Errorf("block %d holds %d %s requests, want %d", b, n, phase, perBlock[phase])
		}
		if phase == "lo" && b < 10 {
			loFirstHalf++
		}
	}
	if loFirstHalf < 5 || loFirstHalf > 6 {
		t.Errorf("%d of the 11 lo blocks fall in the first half; they should interleave evenly", loFirstHalf)
	}
}

func TestBurstBalanced(t *testing.T) {
	a := makeBurst(7, 3, fullSize)
	if !reflect.DeepEqual(a, makeBurst(7, 3, fullSize)) {
		t.Fatal("the same seed and rep gave two different bursts")
	}
	if reflect.DeepEqual(a, makeBurst(7, 4, fullSize)) {
		t.Fatal("reps 3 and 4 gave the same burst")
	}
	perPanel := map[int]int{}
	cold := 0
	for _, q := range a {
		if q.Cold {
			cold++
		} else {
			perPanel[q.Panel]++
		}
	}
	if cold != fullSize.burstN/fullSize.coldEvery {
		t.Errorf("%d cold requests in a burst of %d, want one in %d", cold, len(a), fullSize.coldEvery)
	}
	for p, n := range perPanel {
		if n != perPanel[0] {
			t.Errorf("panel %d asked %d times, panel 0 %d times; want every panel equally", p, n, perPanel[0])
		}
	}
	if len(perPanel) != 10 {
		t.Errorf("%d panels asked for, want 10", len(perPanel))
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	declared := map[string]string{}
	for _, m := range bj.EndToEnd {
		declared[m.Name] = m.Unit
		if !endToEnd[m.Name] {
			t.Errorf("%s is end to end in BENCHMARK.json but not in the program", m.Name)
		}
	}
	for _, m := range bj.PerLayer {
		if _, dup := declared[m.Name]; dup {
			t.Errorf("%s declared twice", m.Name)
		}
		declared[m.Name] = m.Unit
		if endToEnd[m.Name] {
			t.Errorf("%s is per layer in BENCHMARK.json but end to end in the program", m.Name)
		}
	}
	for name, unit := range declared {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("invalid metric name %q or unit %q", name, unit)
		}
		if got, ok := metricUnits[name]; !ok || got != unit {
			t.Errorf("BENCHMARK.json declares %s in %q; the program has %q (declared %t)", name, unit, got, ok)
		}
	}
	for name := range metricUnits {
		if _, ok := declared[name]; !ok {
			t.Errorf("the program prints %s, which BENCHMARK.json does not declare", name)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the program does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, the program runs %d", names, len(workloads))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 40},
		{Name: "child", Parent: 0, Start: 30, End: 50}, // overlaps the first child
		{Name: "grandchild", Parent: 1, Start: 20, End: 25},
		{Name: "other", Parent: -1, Start: 90, End: 95},
	}
	got := map[string]spanTotal{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	want := map[string]spanTotal{
		"root":       {Name: "root", Count: 1, Total: 100, Self: 60},
		"child":      {Name: "child", Count: 2, Total: 50, Self: 45},
		"grandchild": {Name: "grandchild", Count: 1, Total: 5, Self: 5},
		"other":      {Name: "other", Count: 1, Total: 5, Self: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// requires every correctness check to pass and every metric of the
// run's kind to be printed, finite, and nonzero unless it is a count or
// a ratio of a layer.
func TestSmoke(t *testing.T) {
	for name, fn := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				cfg := config{seed: 3, window: 200 * time.Millisecond, trace: traced, workdir: t.TempDir(), workers: 2, size: tinySize}
				r := newReport()
				if err := fn(cfg, r); err != nil {
					t.Fatal(err)
				}
				if len(r.failures) > 0 {
					t.Fatalf("checks failed:\n%s", strings.Join(r.failures, "\n"))
				}
				if r.attempted < 1 || r.failed != 0 {
					t.Errorf("attempted %d, failed %d", r.attempted, r.failed)
				}
				var buf bytes.Buffer
				if err := r.print(&buf, traced); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var line resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !line.Correct || len(line.Metrics) == 0 {
					t.Fatalf("result %+v", line)
				}
				want := 0
				for m := range metricUnits {
					if endToEnd[m] != traced {
						want++
					}
				}
				if len(line.Metrics) != want {
					t.Errorf("%d metrics printed, want every one of the run's kind: %d", len(line.Metrics), want)
				}
				for m, v := range line.Metrics {
					if endToEnd[m] == traced {
						t.Errorf("%s printed in a run with trace=%t", m, traced)
					}
					// A bypassed layer's counts and a share of nothing may
					// read 0; a timing, a size or an end-to-end metric may not.
					zeroOK := !endToEnd[m] && (v.Unit == "count" || v.Unit == "ratio")
					if v.Value != v.Value || (v.Value == 0 && !zeroOK) {
						t.Errorf("%s = %g %s", m, v.Value, v.Unit)
					}
				}
			})
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper-cold", "--seconds", "0"},
		{"--workload", "paper-cold", "--trace", "2"},
		{"--workload", "paper-cold", "--seed", "x"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q; want non-zero and no result", args, code, out.String())
		}
	}
}
