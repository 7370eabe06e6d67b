package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function (or rebuilt from the daemon's event timestamps).
// Start and End are offsets from the tracer's origin; Parent indexes the
// span that caused this one (-1 for a root); OpID names the operation (mix,
// pair or job) every span of one request shares.
type span struct {
	Name   string
	Layer  string
	Start  time.Duration
	End    time.Duration
	Parent int
	OpID   string
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run executes the same code path minus the
// bookkeeping. It is used from one goroutine at a time.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, layer, opID string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, OpID: opID, Start: time.Since(t.origin)})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.origin)
}

// add records a span whose endpoints were measured elsewhere (HTTP round
// trips timed by the load generator, lifecycle stages taken from the
// daemon's job events).
func (t *tracer) add(name, layer, opID string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	if end.Before(start) {
		end = start
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, OpID: opID, Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return len(t.spans) - 1
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its direct children (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.Parent < 0 || s.Parent >= len(spans) {
			continue
		}
		p := spans[s.Parent]
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := time.Duration(0)
		var curLo, curHi time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curLo, curHi, open = v.lo, v.hi, true
			case v.lo <= curHi:
				if v.hi > curHi {
					curHi = v.hi
				}
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// spanStats sums self time and counts spans per "layer.name" key.
type spanStats struct {
	selfByKey  map[string]time.Duration
	countByKey map[string]int
}

func summarize(spans []span) spanStats {
	st := spanStats{selfByKey: map[string]time.Duration{}, countByKey: map[string]int{}}
	self := selfTimes(spans)
	for i, s := range spans {
		key := s.Layer + "." + s.Name
		st.selfByKey[key] += self[i]
		st.countByKey[key]++
	}
	return st
}

// meanSelf is the mean self time of the spans recorded under key, or 0 when
// there are none.
func (st spanStats) meanSelf(key string) time.Duration {
	n := st.countByKey[key]
	if n == 0 {
		return 0
	}
	return st.selfByKey[key] / time.Duration(n)
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events; ts and dur in microseconds), which chrome://tracing and Perfetto
// open directly.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as a Chrome trace: one process, one
// track per operation id (in first-seen order), the layer as the category.
func writeChromeTrace(path string, spans []span) error {
	tids := map[string]int{}
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		tid, ok := tids[s.OpID]
		if !ok {
			tid = len(tids) + 1
			tids[s.OpID] = tid
		}
		args := map[string]string{"op_id": s.OpID, "span": fmt.Sprint(i)}
		if s.Parent >= 0 {
			args["parent"] = fmt.Sprint(s.Parent)
		}
		events = append(events, chromeEvent{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: tid, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
