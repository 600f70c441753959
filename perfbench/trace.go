package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minsim/internal/engine"
	"minsim/internal/metrics"
	"minsim/internal/simrun"
)

// span is one timed call across a layer boundary. Parent is the index
// of the span that caused it (-1 for a root); ID names the request,
// point key or unit the call served, so the spans of one item share it.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured code
// paths are the same in both modes apart from the recording itself.
type tracer struct {
	t0   time.Time
	root atomic.Int64 // span new boundary spans attach to when the caller has none

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.root.Store(-1)
	return t
}

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name, id string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil || i < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// current is the span boundary calls made by the program itself (store
// lookups, HTTP round trips) attach to.
func (t *tracer) current() int {
	if t == nil {
		return -1
	}
	return int(t.root.Load())
}

func (t *tracer) setCurrent(i int) {
	if t != nil {
		t.root.Store(int64(i))
	}
}

// durations returns the durations of every closed span with the name.
func (t *tracer) durations(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// meanMs is the mean duration in milliseconds of the named spans; ok
// is false when there are none.
func (t *tracer) meanMs(name string) (float64, bool) {
	ds := t.durations(name)
	if len(ds) == 0 {
		return 0, false
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return millis(sum) / float64(len(ds)), true
}

// spanTotal aggregates the spans of one name: how many, their summed
// duration, and their self time — the part of each span's interval no
// child span covers.
type spanTotal struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates every span name, largest self time first.
func (t *tracer) selfTimes() []spanTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return selfTimes(spans)
}

func selfTimes(spans []span) []spanTotal {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := map[string]*spanTotal{}
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		var iv [][2]int64
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		covered := unionLength(iv)
		agg := byName[s.Name]
		if agg == nil {
			agg = &spanTotal{Name: s.Name}
			byName[s.Name] = agg
		}
		agg.Count++
		agg.Total += time.Duration(s.End - s.Start)
		agg.Self += time.Duration(s.End - s.Start - covered)
	}
	out := make([]spanTotal, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore wraps a simrun.Store, timing every Get and Put and
// counting lookups and hits.
type tracedStore struct {
	inner      simrun.Store
	tr         *tracer
	gets, hits atomic.Int64
	off        atomic.Bool // pass calls straight through, unrecorded
}

func (s *tracedStore) Get(key string) (metrics.Point, bool) {
	if s.off.Load() {
		return s.inner.Get(key)
	}
	i := s.tr.begin("simrun.Store.Get", key, s.tr.current())
	p, ok := s.inner.Get(key)
	s.tr.end(i)
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return p, ok
}

func (s *tracedStore) Put(key, spec string, p metrics.Point) {
	if s.off.Load() {
		s.inner.Put(key, spec, p)
		return
	}
	i := s.tr.begin("simrun.Store.Put", key, s.tr.current())
	s.inner.Put(key, spec, p)
	s.tr.end(i)
}

func (s *tracedStore) Stats() simrun.StoreStats { return s.inner.Stats() }

// nextSampleEvery is the 1-in-N sampling rate for timing Source.Next:
// the call costs tens of nanoseconds, so timing every call would
// dominate what it measures.
const nextSampleEvery = 64

// sourceStats accumulates the traffic layer's counters. It is owned by
// one goroutine: the replay that creates the sources runs serially.
type sourceStats struct {
	factoryCalls int64
	factoryTime  time.Duration
	nextCalls    int64
	sampled      int64
	sampledTime  time.Duration
}

// countingSource wraps an engine.Source, counting every Next call and
// timing one call in nextSampleEvery.
type countingSource struct {
	inner engine.Source
	st    *sourceStats
}

func (s countingSource) Next(node int) (engine.Message, bool) {
	s.st.nextCalls++
	if s.st.nextCalls%nextSampleEvery != 0 {
		return s.inner.Next(node)
	}
	t := time.Now()
	m, ok := s.inner.Next(node)
	s.st.sampledTime += time.Since(t)
	s.st.sampled++
	return m, ok
}

// wrapFactory returns a SourceFactory that times f and wraps every
// source it builds in a countingSource.
func wrapFactory(f simrun.SourceFactory, st *sourceStats) simrun.SourceFactory {
	return func(load float64, seed uint64) (engine.Source, error) {
		t := time.Now()
		src, err := f(load, seed)
		st.factoryTime += time.Since(t)
		st.factoryCalls++
		if err != nil {
			return nil, err
		}
		return countingSource{inner: src, st: st}, nil
	}
}

// tracedTransport wraps an http.RoundTripper, recording one span per
// round trip named after the endpoint. Lease responses are read in
// full so empty polls (no units granted) can be counted.
type tracedTransport struct {
	inner http.RoundTripper
	tr    *tracer

	leases, emptyLeases atomic.Int64
	off                 atomic.Bool // pass round trips straight through, unrecorded
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.off.Load() {
		return t.inner.RoundTrip(req)
	}
	name := endpointName(req.Method, req.URL.Path)
	i := t.tr.begin(name, "", t.tr.current())
	resp, err := t.inner.RoundTrip(req)
	if err == nil && name == "fleet.lease" {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var lr struct {
			Units []json.RawMessage `json:"units"`
		}
		if rerr == nil && json.Unmarshal(body, &lr) == nil {
			t.leases.Add(1)
			if len(lr.Units) == 0 {
				t.emptyLeases.Add(1)
			}
		}
	}
	t.tr.end(i)
	return resp, err
}

// endpointName maps a request to the span name of the endpoint it
// calls.
func endpointName(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/fleet/v1/store/"):
		if method == http.MethodPut {
			return "fleet.store.put"
		}
		return "fleet.store.get"
	case strings.HasPrefix(path, "/fleet/v1/"):
		return "fleet." + strings.TrimPrefix(path, "/fleet/v1/")
	}
	return fmt.Sprintf("http %s %s", method, path)
}
