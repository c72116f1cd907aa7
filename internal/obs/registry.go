package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a minimal Prometheus-text-format metrics registry (the
// exposition format only — no client_golang dependency; the repo is
// standard-library-only). It supports counters, gauges, function-backed
// counters/gauges evaluated at scrape time, and cumulative histograms with
// a single label dimension.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one metric name: help text, type, and its samples.
type family struct {
	fmu             sync.Mutex // guards samples, fns, hists
	name, help, typ string
	// static samples keyed by rendered label set ("" for unlabelled).
	samples map[string]*sample
	// fn-backed samples are evaluated at scrape time.
	fns map[string]func() float64
	// histograms keyed by label value.
	hists map[string]*histogram
	// histogram metadata.
	label   string
	buckets []float64
}

type sample struct {
	mu sync.Mutex
	v  float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{
			name: name, help: help, typ: typ,
			samples: make(map[string]*sample),
			fns:     make(map[string]func() float64),
			hists:   make(map[string]*histogram),
		}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) sample(labels string) *sample {
	s, ok := f.samples[labels]
	if !ok {
		s = &sample{}
		f.samples[labels] = s
	}
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *sample }

// Add increments the counter by v (v must be >= 0).
func (c *Counter) Add(v float64) {
	c.s.mu.Lock()
	c.s.v += v
	c.s.mu.Unlock()
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count.
func (c *Counter) Value() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.v
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, "counter")
	f.fmu.Lock()
	defer f.fmu.Unlock()
	return &Counter{s: f.sample("")}
}

// LabeledCounter registers a counter with one fixed label, e.g.
// LabeledCounter("runs_total", "...", "reason", "halt").
func (r *Registry) LabeledCounter(name, help, label, value string) *Counter {
	f := r.family(name, help, "counter")
	f.fmu.Lock()
	defer f.fmu.Unlock()
	return &Counter{s: f.sample(renderLabels(label, value))}
}

// Gauge is a value that can go up and down.
type Gauge struct{ s *sample }

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.s.mu.Lock()
	g.s.v = v
	g.s.mu.Unlock()
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	g.s.mu.Lock()
	defer g.s.mu.Unlock()
	return g.s.v
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, "gauge")
	f.fmu.Lock()
	defer f.fmu.Unlock()
	return &Gauge{s: f.sample("")}
}

// LabeledGauge registers a gauge with one fixed label, e.g.
// LabeledGauge("skew", "...", "metric", "compute").
func (r *Registry) LabeledGauge(name, help, label, value string) *Gauge {
	f := r.family(name, help, "gauge")
	f.fmu.Lock()
	defer f.fmu.Unlock()
	return &Gauge{s: f.sample(renderLabels(label, value))}
}

// GaugeFunc registers a gauge evaluated at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, "gauge")
	f.fmu.Lock()
	f.fns[""] = fn
	f.fmu.Unlock()
}

// histogram is a cumulative Prometheus histogram.
type histogram struct {
	mu     sync.Mutex
	counts []uint64 // one per bucket, non-cumulative until render
	sum    float64
	total  uint64
}

// Histogram observes values under one label dimension (e.g. phase="CMP").
type Histogram struct {
	f *family
}

// Observe records v under the given label value.
func (h *Histogram) Observe(label string, v float64) {
	h.f.fmu.Lock()
	hg, ok := h.f.hists[label]
	if !ok {
		hg = &histogram{counts: make([]uint64, len(h.f.buckets))}
		h.f.hists[label] = hg
	}
	h.f.fmu.Unlock()

	hg.mu.Lock()
	for i, ub := range h.f.buckets {
		if v <= ub {
			hg.counts[i]++
			break
		}
	}
	hg.sum += v
	hg.total++
	hg.mu.Unlock()
}

// Histogram registers a histogram with one label dimension and the given
// upper bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help, label string, buckets []float64) *Histogram {
	f := r.family(name, help, "histogram")
	f.fmu.Lock()
	if f.buckets == nil {
		f.label = label
		f.buckets = append(append([]float64(nil), buckets...), math.Inf(1))
	}
	f.fmu.Unlock()
	return &Histogram{f: f}
}

// DefaultDurationBuckets spans 100µs .. ~100s in powers of ~4, a good fit
// for superstep phase times from laptop to cluster scale.
func DefaultDurationBuckets() []float64 {
	return []float64{1e-4, 4e-4, 1.6e-3, 6.4e-3, 2.56e-2, 0.1, 0.4, 1.6, 6.4, 25.6, 102.4}
}

// WriteTo renders the registry in the Prometheus text exposition format,
// families and samples sorted for stable output.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		f.render(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func (f *family) render(b *strings.Builder) {
	f.fmu.Lock()
	defer f.fmu.Unlock()

	keys := make([]string, 0, len(f.samples)+len(f.fns))
	for k := range f.samples {
		keys = append(keys, k)
	}
	for k := range f.fns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var v float64
		if fn, ok := f.fns[k]; ok {
			v = fn()
		} else {
			s := f.samples[k]
			s.mu.Lock()
			v = s.v
			s.mu.Unlock()
		}
		fmt.Fprintf(b, "%s%s %s\n", f.name, k, formatValue(v))
	}

	labels := make([]string, 0, len(f.hists))
	for l := range f.hists {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		h := f.hists[l]
		h.mu.Lock()
		var cum uint64
		for i, ub := range f.buckets {
			cum += h.counts[i]
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n",
				f.name, f.label, l, formatLE(ub), cum)
		}
		fmt.Fprintf(b, "%s_sum{%s=%q} %s\n", f.name, f.label, l, formatValue(h.sum))
		fmt.Fprintf(b, "%s_count{%s=%q} %d\n", f.name, f.label, l, h.total)
		h.mu.Unlock()
	}
}

func renderLabels(label, value string) string {
	return "{" + label + "=" + strconv.Quote(value) + "}"
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLE(ub float64) string {
	if math.IsInf(ub, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(ub, 'g', -1, 64)
}
