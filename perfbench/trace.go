package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one completed interval recorded by the benchmark around a call
// into a layer. Spans of one operation share Trace; Parent links a span to
// the span that caused it (0 for an operation's root).
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the benchmark's own spans in memory until the run ends.
// A nil *recorder is tracing off: every method is a no-op, so the
// untraced run pays one nil check per boundary.
type recorder struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// active is an open span; the zero value (from a nil recorder) is inert.
type active struct {
	r      *recorder
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  int64
}

// root opens the first span of a new operation.
func (r *recorder) root(name string) active {
	if r == nil {
		return active{}
	}
	id := r.next.Add(1)
	return active{r: r, trace: id, id: id, name: name, start: int64(time.Since(r.t0))}
}

// child opens a span caused by a.
func (a active) child(name string) active {
	if a.r == nil {
		return active{}
	}
	return active{r: a.r, trace: a.trace, id: a.r.next.Add(1), parent: a.id, name: name,
		start: int64(time.Since(a.r.t0))}
}

// end closes the span and keeps it.
func (a active) end() {
	if a.r == nil {
		return
	}
	s := span{Trace: a.trace, ID: a.id, Parent: a.parent, Name: a.name, Start: a.start,
		End: int64(time.Since(a.r.t0))}
	a.r.mu.Lock()
	a.r.spans = append(a.r.spans, s)
	a.r.mu.Unlock()
}

// all returns the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanIndex groups spans for self-time and per-name queries.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
}

func indexSpans(spans []span) spanIndex {
	ix := spanIndex{byName: map[string][]span{}, children: map[uint64][]span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations of every span with the given name.
func (ix spanIndex) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range ix.byName[name] {
		out = append(out, s.dur())
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// direct children cover (overlapping children are counted once).
func (ix spanIndex) selfTime(s span) time.Duration {
	return s.dur() - covered(s, ix.children[s.ID])
}

// covered measures the union of the children's intervals, clipped to the
// parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// --- statistics ---

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the midpoint median (the mean of the two middle samples for an
// even count).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geomean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metricSet is the name → value map a run reports, each with its unit.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// describe renders a metric set as sorted "name=value unit" lines.
func (m metricSet) describe() string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		out += fmt.Sprintf("  %-40s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	return out
}
