package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// Op; Parent indexes the span that caused this one (-1 for an op root).
// The layer of a span is its name up to the first dot.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory for the length of a run. A nil *tracer is
// the untraced run: every method is a no-op returning -1.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span id now.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// add records a span whose bounds were measured elsewhere, such as a
// server-side interval reconstructed from a reply.
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.since(start), End: t.since(end), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each layer's self time in milliseconds: for every
// span, its duration minus the part of its interval that its children
// cover. Overlapping children are merged first, so time two children
// share is subtracted once. Set-up spans (Op < 0) belong to no op and are
// left out.
func selfTimes(spans []span) map[string]float64 {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 && p < len(spans) {
			children[p] = append(children[p], i)
		}
	}
	out := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		if s.Op < 0 {
			continue
		}
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self := s.End - s.Start - covered(ivs)
		out[s.layer()] += float64(self) / float64(time.Millisecond)
	}
	return out
}

// covered returns the length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanDurations returns the durations in milliseconds of every span named
// name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, float64(spans[i].End-spans[i].Start)/float64(time.Millisecond))
		}
	}
	return out
}
