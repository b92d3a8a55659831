package obs

import (
	"flag"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// parseText splits exposition output into sample lines keyed by the full
// series name (including labels).
func parseText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("parsing value of %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	return sb.String()
}

func TestCountersGaugesAndFuncs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	r.GaugeFunc("test_depth", "depth", func() float64 { return 4.5 })
	r.CounterFunc("test_fn_total", "fn", func() float64 { return 42 })
	r.GaugeFunc("test_fn_gauge", "fn gauge", func() float64 { return -1.5 })
	for i := 0; i < 4; i++ {
		c.Inc()
	}

	text := render(t, r)
	samples := parseText(t, text)
	for name, want := range map[string]float64{
		"test_ops_total": 4, "test_depth": 4.5, "test_fn_total": 42, "test_fn_gauge": -1.5,
	} {
		if samples[name] != want {
			t.Errorf("%s = %v, want %v", name, samples[name], want)
		}
	}
	for _, want := range []string{
		"# HELP test_ops_total ops", "# TYPE test_ops_total counter",
		"# TYPE test_depth gauge", "# TYPE test_fn_total counter",
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("missing metadata line %q in:\n%s", want, text)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	text := render(t, r)
	samples := parseText(t, text)

	// Buckets must be cumulative and monotone, ending at +Inf == count.
	bounds := []string{"0.01", "0.1", "1", "+Inf"}
	prev := -1.0
	for _, le := range bounds {
		key := `test_latency_seconds_bucket{le="` + le + `"}`
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s in:\n%s", key, text)
		}
		if v < prev {
			t.Fatalf("bucket %s = %v < previous %v (not monotone)", key, v, prev)
		}
		prev = v
	}
	if got := samples[`test_latency_seconds_bucket{le="+Inf"}`]; got != 4 {
		t.Errorf("+Inf bucket = %v, want 4", got)
	}
	if got := samples["test_latency_seconds_count"]; got != 4 {
		t.Errorf("count = %v, want 4", got)
	}
	if got := samples["test_latency_seconds_sum"]; got < 5.5 || got > 5.6 {
		t.Errorf("sum = %v, want ~5.555", got)
	}
	if !strings.Contains(text, "# TYPE test_latency_seconds histogram\n") {
		t.Errorf("missing histogram TYPE line in:\n%s", text)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_stage_seconds", "per-stage", "stage", []float64{1})
	v.With("profile").Observe(0.5)
	v.With("profile").Observe(2)
	v.With("cluster").Observe(0.1)
	samples := parseText(t, render(t, r))
	if got := samples[`test_stage_seconds_bucket{stage="profile",le="1"}`]; got != 1 {
		t.Errorf("profile le=1 bucket = %v, want 1", got)
	}
	if got := samples[`test_stage_seconds_count{stage="profile"}`]; got != 2 {
		t.Errorf("profile count = %v, want 2", got)
	}
	if got := samples[`test_stage_seconds_count{stage="cluster"}`]; got != 1 {
		t.Errorf("cluster count = %v, want 1", got)
	}
}

// TestExpvarParity proves the expvar bridge reports exactly the values the
// exposition format serves, for scalars and histograms alike.
func TestExpvarParity(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("par_ops_total", "ops")
	c.Inc()
	r.GaugeFunc("par_level", "level", func() float64 { return 3.25 })
	h := r.Histogram("par_lat_seconds", "lat", []float64{0.5})
	h.Observe(0.1)
	h.Observe(0.9)

	bridged := r.Expvar()().(map[string]any)
	samples := parseText(t, render(t, r))

	if got := bridged["par_ops_total"].(float64); got != samples["par_ops_total"] {
		t.Errorf("bridge par_ops_total = %v, exposition %v", got, samples["par_ops_total"])
	}
	if got := bridged["par_level"].(float64); got != samples["par_level"] {
		t.Errorf("bridge par_level = %v, exposition %v", got, samples["par_level"])
	}
	hb := bridged["par_lat_seconds"].(map[string]any)
	if got := float64(hb["count"].(uint64)); got != samples["par_lat_seconds_count"] {
		t.Errorf("bridge count = %v, exposition %v", got, samples["par_lat_seconds_count"])
	}
	if got := hb["sum"].(float64); got != samples["par_lat_seconds_sum"] {
		t.Errorf("bridge sum = %v, exposition %v", got, samples["par_lat_seconds_sum"])
	}
	buckets := hb["buckets"].(map[string]uint64)
	if got := float64(buckets["0.5"]); got != samples[`par_lat_seconds_bucket{le="0.5"}`] {
		t.Errorf("bridge bucket 0.5 = %v, exposition %v", got, samples[`par_lat_seconds_bucket{le="0.5"}`])
	}
	if got := float64(buckets["+Inf"]); got != samples[`par_lat_seconds_bucket{le="+Inf"}`] {
		t.Errorf("bridge bucket +Inf = %v, exposition %v", got, samples[`par_lat_seconds_bucket{le="+Inf"}`])
	}
}

func TestInvalidAndDuplicateNamesPanic(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("invalid name", func() { NewRegistry().Counter("bad name", "x") })
	expectPanic("leading digit", func() { NewRegistry().Counter("9bad", "x") })
	expectPanic("duplicate", func() {
		r := NewRegistry()
		r.Counter("dup_total", "x")
		r.Counter("dup_total", "x")
	})
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "x", []float64{1})
	c := r.Counter("conc_total", "x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.5)
				c.Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.WriteText(io.Discard)
		}
	}()
	wg.Wait()
	<-done
	samples := parseText(t, render(t, r))
	if samples["conc_seconds_count"] != 8000 || samples["conc_total"] != 8000 {
		t.Errorf("lost samples: %v", samples)
	}
}

func TestNilHistogramObserve(t *testing.T) {
	var h *Histogram
	h.Observe(1) // must not panic
	h.ObserveDuration(time.Second)
}

func TestLogFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	lf := RegisterLogFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-log-json"}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	l, err := lf.Logger(&sb)
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hello", "k", "v")
	if !strings.Contains(sb.String(), `"msg":"hello"`) || !strings.Contains(sb.String(), `"k":"v"`) {
		t.Errorf("unexpected JSON log output: %s", sb.String())
	}
	lf.Level = "nope"
	if _, err := lf.Logger(io.Discard); err == nil {
		t.Error("bad level accepted")
	}
}
