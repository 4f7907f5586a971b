package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

// span is one timed interval of the traced run, kept in memory and
// written out at the end. Virtual is the virtual time at the span's
// start; SelfNS, filled in when the spans are written, is the span's
// duration minus the part its child spans cover.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent,omitempty"`
	Name    string        `json:"name"`
	StartNS int64         `json:"start_ns"`
	EndNS   int64         `json:"end_ns"`
	SelfNS  int64         `json:"self_ns"`
	Virtual time.Duration `json:"virtual_ns"`
}

// recorder collects the traced run's spans. A nil recorder records
// nothing, so timed passes drive the same code without tracing.
type recorder struct {
	origin time.Time
	spans  []span
	stack  []int // open spans, innermost last
	clock  func() time.Duration
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	sp := span{ID: len(r.spans) + 1, Name: name, StartNS: time.Since(r.origin).Nanoseconds()}
	if len(r.stack) > 0 {
		sp.Parent = r.stack[len(r.stack)-1]
	}
	if r.clock != nil {
		sp.Virtual = r.clock()
	}
	r.spans = append(r.spans, sp)
	r.stack = append(r.stack, sp.ID)
	return sp.ID
}

// end closes span id, which must be the innermost open one.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].EndNS = time.Since(r.origin).Nanoseconds()
	r.stack = r.stack[:len(r.stack)-1]
}

// mark records an instantaneous span (a serve arrival) at virtual time v.
func (r *recorder) mark(name string, v time.Duration) {
	if r == nil {
		return
	}
	id := r.begin(name)
	r.spans[id-1].Virtual = v
	r.end(id)
}

// runUntil advances the cluster under a "run_until" span.
func (r *recorder) runUntil(c *core.Cluster, t time.Duration) {
	id := r.begin("run_until")
	c.RunUntil(t)
	r.end(id)
}

// totalNS returns the summed duration of every span with the name.
func (r *recorder) totalNS(name string) int64 {
	var t int64
	for _, sp := range r.spans {
		if sp.Name == name {
			t += sp.EndNS - sp.StartNS
		}
	}
	return t
}

// write stores the spans as JSON lines, with their self times.
func (r *recorder) write(path string) error {
	for i := range r.spans {
		r.spans[i].SelfNS += r.spans[i].EndNS - r.spans[i].StartNS
		if p := r.spans[i].Parent; p > 0 {
			r.spans[p-1].SelfNS -= r.spans[i].EndNS - r.spans[i].StartNS
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// layerTime accumulates wall time and deliveries charged to one package.
type layerTime struct {
	ns   int64
	msgs int64
}

// handlerClock charges every message delivery to the package of the
// payload's outer type. Pastry-routed payloads arrive wrapped in pastry's
// envelope, so their application upcalls count as pastry.
type handlerClock struct {
	byType  map[reflect.Type]*layerTime
	byLayer map[string]*layerTime
}

func newHandlerClock() *handlerClock {
	return &handlerClock{byType: make(map[reflect.Type]*layerTime), byLayer: make(map[string]*layerTime)}
}

func (hc *handlerClock) of(payload any) *layerTime {
	t := reflect.TypeOf(payload)
	if lt, ok := hc.byType[t]; ok {
		return lt
	}
	layer := "other"
	if t != nil {
		et := t
		for et.Kind() == reflect.Pointer {
			et = et.Elem()
		}
		layer = internalPkg(et.PkgPath())
	}
	lt, ok := hc.byLayer[layer]
	if !ok {
		lt = &layerTime{}
		hc.byLayer[layer] = lt
	}
	hc.byType[t] = lt
	return lt
}

func (hc *handlerClock) layer(name string) layerTime {
	if lt, ok := hc.byLayer[name]; ok {
		return *lt
	}
	return layerTime{}
}

func (hc *handlerClock) totalNS() int64 {
	var t int64
	for _, lt := range hc.byLayer {
		t += lt.ns
	}
	return t
}

// timedHandler wraps an endpoint's handler with handlerClock accounting.
type timedHandler struct {
	inner simnet.Handler
	hc    *handlerClock
}

func (h timedHandler) HandleMessage(from simnet.Endpoint, payload any) {
	t0 := time.Now()
	h.inner.HandleMessage(from, payload)
	lt := h.hc.of(payload)
	lt.ns += time.Since(t0).Nanoseconds()
	lt.msgs++
}

// bindTimed rebinds every endpoint of the cluster to a timed wrapper
// around its overlay node.
func bindTimed(c *core.Cluster, hc *handlerClock) {
	for ep := 0; ep < c.Net.NumEndpoints(); ep++ {
		e := simnet.Endpoint(ep)
		c.Net.Bind(e, timedHandler{inner: c.Ring.Node(e), hc: hc})
	}
}

// internalPkg maps an import path or a qualified function name inside
// repro/internal to its top-level package name ("pastry" for
// "repro/internal/pastry.(*Node).HandleMessage"), and anything else to
// "other".
func internalPkg(name string) string {
	const prefix = "repro/internal/"
	i := strings.Index(name, prefix)
	if i < 0 {
		return "other"
	}
	rest := name[i+len(prefix):]
	if j := strings.IndexAny(rest, "./"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}
