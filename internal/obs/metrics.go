package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the default histogram bounds, 100µs to 30s: point
// simulations live at the low end, whole farmed estimates at the high end.
var DefLatencyBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// metricKind is the Prometheus family type.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Histogram is a fixed-bucket distribution. Buckets are cumulative upper
// bounds; an implicit +Inf bucket always exists. All methods are safe for
// concurrent use.
type Histogram struct {
	upper   []float64 // sorted ascending, exclusive of +Inf
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefLatencyBuckets
	}
	up := append([]float64(nil), buckets...)
	sort.Float64s(up)
	return &Histogram{upper: up, counts: make([]atomic.Uint64, len(up)+1)}
}

// Observe records one sample. A nil histogram is a valid no-op, so
// un-instrumented components can skip the nil checks.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.upper, v) // first bucket with upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// snapshot returns cumulative bucket counts (ending with the +Inf total),
// the sample sum, and the sample count, read in that order so the buckets
// never exceed the count.
func (h *Histogram) snapshot() (cum []uint64, sum float64, count uint64) {
	cum = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, math.Float64frombits(h.sumBits.Load()), cum[len(cum)-1]
}

// family is one metric family: a name, help text and type shared by one
// scalar series or one label dimension of series.
type family struct {
	name, help string
	kind       metricKind
	label      string    // label name for vector families; "" for scalars
	buckets    []float64 // histogram families only

	mu     sync.Mutex
	series map[string]any // label value ("" for scalars) → collector
}

// collector kinds stored in family.series.
type funcMetric func() float64

// Registry holds metric families and renders them in Prometheus text
// exposition format. Construct one per server/component with NewRegistry;
// there is no process-global registry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// validName enforces the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// newFamily registers a family, panicking on invalid or duplicate names —
// both are programmer errors, caught the first time the code path runs.
func (r *Registry) newFamily(name, help string, kind metricKind, label string, buckets []float64) *family {
	if !validName(name) || (label != "" && !validName(label)) {
		panic(fmt.Sprintf("obs: invalid metric name %q (label %q)", name, label))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, kind: kind, label: label, buckets: buckets,
		series: make(map[string]any)}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

func (f *family) get(labelValue string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[labelValue]; ok {
		return c
	}
	c := mk()
	f.series[labelValue] = c
	return c
}

// Counter registers and returns a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.newFamily(name, help, counterKind, "", nil)
	return f.get("", func() any { return new(Counter) }).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for atomic counters kept elsewhere (the service
// manager's and pipeline's, farm.Stats), which stay the single source of
// truth.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.newFamily(name, help, counterKind, "", nil)
	f.get("", func() any { return funcMetric(fn) })
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.newFamily(name, help, gaugeKind, "", nil)
	f.get("", func() any { return funcMetric(fn) })
}

// Histogram registers and returns a scalar histogram over the given
// cumulative upper bounds (DefLatencyBuckets if nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.newFamily(name, help, histogramKind, "", buckets)
	return f.get("", func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family partitioned by one label.
type HistogramVec struct{ f *family }

// HistogramVec registers a single-label histogram family.
func (r *Registry) HistogramVec(name, help, label string, buckets []float64) *HistogramVec {
	return &HistogramVec{r.newFamily(name, help, histogramKind, label, buckets)}
}

// With returns the histogram for one label value, creating it on first use.
func (v *HistogramVec) With(labelValue string) *Histogram {
	return v.f.get(labelValue, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// fmtFloat renders a sample value the way Prometheus clients do.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// value reads a collector's scalar sample.
func sampleValue(c any) float64 {
	switch m := c.(type) {
	case *Counter:
		return float64(m.Value())
	case funcMetric:
		return m()
	}
	return math.NaN()
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4). Families are sorted by name and series by label value,
// so the output is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := &errWriter{w: w}
	for _, f := range fams {
		f.mu.Lock()
		labels := make([]string, 0, len(f.series))
		for lv := range f.series {
			labels = append(labels, lv)
		}
		sort.Strings(labels)
		series := make([]any, len(labels))
		for i, lv := range labels {
			series[i] = f.series[lv]
		}
		f.mu.Unlock()
		if len(series) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for i, lv := range labels {
			if h, ok := series[i].(*Histogram); ok {
				writeHistogram(bw, f, lv, h)
				continue
			}
			// Only histogram families carry a label: a scalar series has none.
			fmt.Fprintf(bw, "%s %s\n", f.name, fmtFloat(sampleValue(series[i])))
		}
	}
	return bw.err
}

func writeHistogram(w io.Writer, f *family, labelValue string, h *Histogram) {
	cum, sum, count := h.snapshot()
	prefix := "" // extra label rendered before le=
	if f.label != "" {
		prefix = fmt.Sprintf("%s=%q,", f.label, escapeLabel(labelValue))
	}
	for i, upper := range h.upper {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", f.name, prefix, fmtFloat(upper), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, prefix, cum[len(cum)-1])
	if f.label == "" {
		fmt.Fprintf(w, "%s_sum %s\n", f.name, fmtFloat(sum))
		fmt.Fprintf(w, "%s_count %d\n", f.name, count)
	} else {
		fmt.Fprintf(w, "%s_sum{%s=%q} %s\n", f.name, f.label, escapeLabel(labelValue), fmtFloat(sum))
		fmt.Fprintf(w, "%s_count{%s=%q} %d\n", f.name, f.label, escapeLabel(labelValue), count)
	}
}

// errWriter latches the first write error so WriteText can report it
// without threading errors through every Fprintf.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// Handler serves the registry at GET /metrics in text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}

// MountPprof mounts net/http/pprof under /debug/pprof/ on mux. The daemons
// never serve http.DefaultServeMux, so the profiler is opt-in per process.
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
