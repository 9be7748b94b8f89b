package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span propagation headers: the client names its span, the server-side
// wrapper records its own span as that span's child in the same trace.
const (
	hdrSpan  = "X-Perfbench-Span"
	hdrTrace = "X-Perfbench-Trace"
)

// spanRef is an open span. The zero value (what a nil recorder hands
// out) records nothing and propagates nothing.
type spanRef struct {
	id, parent, trace uint64
	name              string
	start             time.Time
}

func (s spanRef) inject(h http.Header) {
	if s.id == 0 {
		return
	}
	h.Set(hdrSpan, strconv.FormatUint(s.id, 10))
	h.Set(hdrTrace, strconv.FormatUint(s.trace, 10))
}

// span is one finished span; times are nanoseconds since the recorder
// started. Spans of one request share Trace (the root span's ID).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Trace   uint64 `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps every span of a traced run in memory; write dumps them
// when the run ends. A nil recorder (untraced run) does nothing.
type recorder struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (a root span when parent is zero).
func (r *recorder) begin(name string, parent spanRef) spanRef {
	if r == nil {
		return spanRef{}
	}
	id := r.next.Add(1)
	trace := parent.trace
	if trace == 0 {
		trace = id
	}
	return spanRef{id: id, parent: parent.id, trace: trace, name: name, start: time.Now()}
}

func (r *recorder) end(s spanRef) {
	if r == nil || s.id == 0 {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
		StartNS: s.start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(),
	})
	r.mu.Unlock()
}

// wrap records one server-side span per request around h, parented to
// the client span named in the request headers.
func (r *recorder) wrap(h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var parent spanRef
		parent.id, _ = strconv.ParseUint(req.Header.Get(hdrSpan), 10, 64)
		parent.trace, _ = strconv.ParseUint(req.Header.Get(hdrTrace), 10, 64)
		s := r.begin("serve.http "+req.URL.Path, parent)
		h.ServeHTTP(w, req)
		r.end(s)
	})
}

// count is the number of spans recorded so far.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// durations returns the durations (ms) of every span named name.
func (r *recorder) durations(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfTime aggregates the spans of one name. Self time is a span's
// duration minus the part of it its children cover.
type selfTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func selfTimes(spans []span) []selfTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.EndNS - s.StartNS
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// traceReport is the file a traced run leaves behind.
type traceReport struct {
	Provenance provenance        `json:"provenance"`
	Metrics    map[string]metric `json:"metrics"`
	Notes      map[string]string `json:"notes"`
	SelfTimes  []selfTime        `json:"self_times"`
	Spans      []span            `json:"spans"`
}

// write dumps the spans, their self times and the per-layer metrics to
// dir/<workload>-seed<n>.json and prints the self-time table.
func (r *recorder) write(b *bench, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	rep := traceReport{
		Provenance: b.prov, Metrics: b.layers, Notes: b.layerNotes,
		SelfTimes: selfTimes(spans), Spans: spans,
	}
	fmt.Println("perfbench: span self times (ms)")
	for _, st := range rep.SelfTimes {
		fmt.Printf("  %-28s n=%-6d total %12.3f  self %12.3f\n", st.Name, st.Count, st.TotalMS, st.SelfMS)
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.opt.workload, b.opt.seed))
	fmt.Printf("perfbench: %d spans written to %s\n", len(spans), path)
	return os.WriteFile(path, data, 0o644)
}
