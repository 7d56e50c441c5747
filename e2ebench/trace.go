package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layer names one timed public call of the pipeline. The benchmark times
// each from outside, by wrapping the call; module names are layer names.
type layer uint8

const (
	layerAgent         layer = iota // monitor.Point.Observe
	layerSend                       // monitor.Sender.Send (durable: returns after the server's ack)
	layerSched                      // core.Scheduler.PushCtx
	layerObserve                    // health.Monitor.ObserveCtx
	layerIngest                     // core.IncrementalKERT.Ingest
	layerRefit                      // core.IncrementalKERT.Build
	layerRelearn                    // decentral.LearnRobust + decentral.Install
	layerHealthDeploy               // health.Monitor.SetModel
	layerGatewayDeploy              // gateway.Server.SetModel
	layerQuery                      // one gateway HTTP round trip
	numLayers
)

var layerNames = [numLayers]string{
	"monitor.agent", "monitor.send", "core.sched", "health.observe", "core.ingest",
	"core.refit", "decentral.relearn", "health.deploy", "gateway.deploy", "gateway.query",
}

// noLayer marks a root layer in parentLayer.
const noLayer = numLayers

// parentLayer is the call nesting of the ingest path: an Observe may
// trigger a send; a durable send returns only after the server ran the
// sink (PushCtx, then gateway deploy) for every row the frame completed;
// PushCtx scores, ingests, and on a construction interval refits,
// relearns and redeploys the health monitor.
var parentLayer = [numLayers]layer{
	layerAgent:         noLayer,
	layerSend:          layerAgent,
	layerSched:         layerSend,
	layerObserve:       layerSched,
	layerIngest:        layerSched,
	layerRefit:         layerSched,
	layerRelearn:       layerSched,
	layerHealthDeploy:  layerSched,
	layerGatewayDeploy: layerSend,
	layerQuery:         noLayer,
}

// span is one timed call. Times are nanoseconds since the recorder's
// epoch; parent indexes the recorder's span slice (-1 for a root).
type span struct {
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	ID     int64 `json:"id"`
	Parent int32 `json:"parent"`
	Layer  layer `json:"-"`
}

// layerTotals accumulates folded spans of one layer.
type layerTotals struct {
	count int64
	dur   int64 // summed span durations, ns
	self  int64 // summed self times, ns
}

// recorder keeps spans in memory while tracing is on. The ingest path runs
// one call at a time (one generator thread, synchronous durable sends), so
// the open span of a layer's parent layer is its parent, even when the
// parent runs on another goroutine (the send waits for the server's sink).
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu     sync.Mutex
	spans  []span
	open   [numLayers]int32
	totals [numLayers]layerTotals
	// kept is a bounded copy of the first folded spans, written out at exit.
	kept []span
}

// keepSpans bounds the spans written out at exit.
const keepSpans = 20000

func newRecorder(capacity int) *recorder {
	r := &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
	for i := range r.open {
		r.open[i] = -1
	}
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// setOn switches span recording; a nil recorder stays off.
func (r *recorder) setOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// begin opens a span of layer l for row or query id (negative: the
// parent's id) and returns its index, or -1 when tracing is off (a nil
// recorder is always off).
func (r *recorder) begin(l layer, id int64) int32 {
	if r == nil || !r.on.Load() {
		return -1
	}
	t := r.now()
	r.mu.Lock()
	parent := int32(-1)
	if p := parentLayer[l]; p != noLayer {
		parent = r.open[p]
	}
	if id < 0 && parent >= 0 {
		id = r.spans[parent].ID
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{Start: t, End: -1, ID: id, Parent: parent, Layer: l})
	r.open[l] = i
	r.mu.Unlock()
	return i
}

// end closes span i (a no-op for -1).
func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	s := &r.spans[i]
	s.End = t
	if r.open[s.Layer] == i {
		r.open[s.Layer] = -1
	}
	r.mu.Unlock()
}

// fold adds the recorded spans' durations and self times to the per-layer
// totals and empties the span buffer. Callers fold only when no span is
// open: between rows of the generator loop, after every send returned.
func (r *recorder) fold() {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	for i, s := range r.spans {
		t := &r.totals[s.Layer]
		t.count++
		t.dur += s.End - s.Start
		t.self += self[i]
	}
	if room := keepSpans - len(r.kept); room > 0 {
		base := int32(len(r.kept))
		for _, s := range r.spans[:min(room, len(r.spans))] {
			if s.Parent >= 0 {
				s.Parent += base
			}
			r.kept = append(r.kept, s)
		}
	}
	r.spans = r.spans[:0]
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children are clipped to the parent's interval
// and overlapping children count once, so concurrent children never drive
// a self time below zero.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered := int64(0)
		curLo, curHi := int64(0), int64(-1)
		for _, x := range iv {
			if x[0] > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = x[0], x[1]
			} else if x[1] > curHi {
				curHi = x[1]
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeSpans writes the kept spans as JSON to path.
func (r *recorder) writeSpans(path string) error {
	type named struct {
		Name string `json:"name"`
		span
	}
	r.mu.Lock()
	out := make([]named, len(r.kept))
	for i, s := range r.kept {
		out[i] = named{Name: layerNames[s.Layer], span: s}
	}
	r.mu.Unlock()
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
