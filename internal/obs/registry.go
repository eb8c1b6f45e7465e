package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named counters, gauges and histograms and renders them as
// Prometheus text exposition or JSON. It replaces per-component ad-hoc
// counter structs: the daemon's service metrics and the simulator's kernel
// counters publish through one of these.
//
// A metric name may carry a Prometheus label suffix ("jobs_total
// {state=\"done\"}"); samples of the same family (the name up to '{')
// share one # TYPE header. Registration is idempotent: asking for an
// existing name returns the existing metric, so call sites need no
// init-order coordination. Value updates are atomic; the registry is safe
// for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
	cfuncs   map[string]func() uint64
	help     map[string]string // by family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
		cfuncs:   make(map[string]func() uint64),
		help:     make(map[string]string),
	}
}

// family strips a label suffix off a sample name.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) setHelp(name, help string) {
	if f := family(name); help != "" && r.help[f] == "" {
		r.help[f] = help
	}
}

// Counter returns the monotonically increasing counter with this name,
// creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.setHelp(name, help)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge with this name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.setHelp(name, help)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a gauge whose value is computed at render time — for
// derived metrics (hit ratios, utilization fractions) that would otherwise
// drift from the counters they summarize between updates. fn is called with
// the registry lock held, so it must not call back into the registry; reading
// Counter/Gauge values directly (atomic loads) is safe. Registration is
// idempotent like the other metric kinds: the first fn for a name wins.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[name]; ok {
		return
	}
	r.setHelp(name, help)
	r.funcs[name] = fn
}

// CounterFunc registers a counter whose value is read at render time — for
// a count another component already keeps, published here under this
// registry's name. fn has the same constraints as GaugeFunc's; the first fn
// for a name wins.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cfuncs[name]; ok {
		return
	}
	r.setHelp(name, help)
	r.cfuncs[name] = fn
}

// Histogram returns the histogram with this name, creating it on first use
// with the given upper bucket bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.setHelp(name, help)
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.hists[name] = h
	return h
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// AddFloor adjusts the value by d but never below floor — for gauges whose
// invariant makes negative values meaningless (in-flight counts), where a
// double decrement must saturate rather than corrupt the metric.
func (g *Gauge) AddFloor(d, floor int64) {
	for {
		cur := g.v.Load()
		next := cur + d
		if next < floor {
			next = floor
		}
		if g.v.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with a sum and a count.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last bucket is +Inf
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, families sorted by name, samples sorted within a family. Output
// is deterministic for a fixed set of values.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	type fam struct {
		typ   string
		names []string
	}
	fams := make(map[string]*fam)
	add := func(name, typ string) {
		f := family(name)
		if fams[f] == nil {
			fams[f] = &fam{typ: typ}
		}
		fams[f].names = append(fams[f].names, name)
	}
	for name := range r.counters {
		add(name, "counter")
	}
	for name := range r.cfuncs {
		add(name, "counterfunc")
	}
	for name := range r.gauges {
		add(name, "gauge")
	}
	for name := range r.funcs {
		add(name, "gaugefunc")
	}
	for name := range r.hists {
		add(name, "histogram")
	}
	order := make([]string, 0, len(fams))
	for f := range fams {
		order = append(order, f)
	}
	sort.Strings(order)
	for _, fname := range order {
		f := fams[fname]
		sort.Strings(f.names)
		if help := r.help[fname]; help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", fname, help)
		}
		typ := f.typ
		switch typ { // computed metrics render as their plain kinds
		case "gaugefunc":
			typ = "gauge"
		case "counterfunc":
			typ = "counter"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", fname, typ)
		for _, name := range f.names {
			switch f.typ {
			case "counter":
				fmt.Fprintf(w, "%s %d\n", name, r.counters[name].Value())
			case "counterfunc":
				fmt.Fprintf(w, "%s %d\n", name, r.cfuncs[name]())
			case "gauge":
				fmt.Fprintf(w, "%s %d\n", name, r.gauges[name].Value())
			case "gaugefunc":
				fmt.Fprintf(w, "%s %.6f\n", name, r.funcs[name]())
			case "histogram":
				s := r.hists[name].Snapshot()
				var cum uint64
				for i, b := range s.Bounds {
					cum += s.Counts[i]
					fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(b), cum)
				}
				cum += s.Counts[len(s.Bounds)]
				fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
				fmt.Fprintf(w, "%s_sum %g\n", name, s.Sum)
				fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
			}
		}
	}
}

func trimFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
}

// registryJSON is the JSON wire form of a registry snapshot.
type registryJSON struct {
	Counters   map[string]uint64       `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	GaugeFuncs map[string]float64      `json:"gauge_funcs,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// WriteJSON renders every metric as one JSON object (keys sorted by Go's
// deterministic map marshalling).
func (r *Registry) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	out := registryJSON{}
	if len(r.counters)+len(r.cfuncs) > 0 {
		out.Counters = make(map[string]uint64, len(r.counters)+len(r.cfuncs))
		for name, c := range r.counters {
			out.Counters[name] = c.Value()
		}
		for name, fn := range r.cfuncs {
			out.Counters[name] = fn()
		}
	}
	if len(r.gauges) > 0 {
		out.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			out.Gauges[name] = g.Value()
		}
	}
	if len(r.funcs) > 0 {
		out.GaugeFuncs = make(map[string]float64, len(r.funcs))
		for name, fn := range r.funcs {
			out.GaugeFuncs[name] = fn()
		}
	}
	if len(r.hists) > 0 {
		out.Histograms = make(map[string]HistSnapshot, len(r.hists))
		for name, h := range r.hists {
			out.Histograms[name] = h.Snapshot()
		}
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
