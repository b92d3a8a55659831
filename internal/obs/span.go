package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// NewTraceID mints a random 64-bit trace ID in hex. It identifies one
// service job and everything done on its behalf, locally or on workers.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000" // degraded but functional: IDs collide, nothing breaks
	}
	return hex.EncodeToString(b[:])
}

// Stage is one timed phase of a span. Repeated observations of the same
// stage accumulate (DurationNs sums, Count counts), so a loop stage like
// "adaptive-round" reads as one line with a multiplicity. Stages with
// Concurrent set overlap other stages (e.g. trace decoding performed
// inside profiling and simulation) and are excluded when checking that
// stages partition the span's wall clock.
type Stage struct {
	Name       string `json:"name"`
	DurationNs int64  `json:"duration_ns"`
	Count      int    `json:"count"`
	Concurrent bool   `json:"concurrent,omitempty"`
}

// SpanData is the serializable snapshot of a span, embedded in job
// snapshots (GET /v1/jobs/{id}) and recorded into SpanRecorders.
type SpanData struct {
	TraceID    string            `json:"trace_id"`
	Name       string            `json:"name"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end,omitzero"`
	DurationNs int64             `json:"duration_ns,omitempty"`
	Stages     []Stage           `json:"stages,omitempty"`
}

// StageSumNs sums the non-concurrent stage durations — the part of the
// span's wall clock the stages account for.
func (d SpanData) StageSumNs() int64 {
	var sum int64
	for _, s := range d.Stages {
		if !s.Concurrent {
			sum += s.DurationNs
		}
	}
	return sum
}

// Span is a mutable, thread-safe span under construction. A nil *Span is
// a valid no-op, so un-instrumented code paths need no branching.
type Span struct {
	mu sync.Mutex
	d  SpanData
}

// NewSpan starts a span now.
func NewSpan(traceID, name string) *Span {
	return &Span{d: SpanData{TraceID: traceID, Name: name, Start: time.Now()}}
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d.Attrs == nil {
		s.d.Attrs = make(map[string]string)
	}
	s.d.Attrs[k] = v
}

func (s *Span) observe(stage string, d time.Duration, concurrent bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.d.Stages {
		if s.d.Stages[i].Name == stage && s.d.Stages[i].Concurrent == concurrent {
			s.d.Stages[i].DurationNs += d.Nanoseconds()
			s.d.Stages[i].Count++
			return
		}
	}
	s.d.Stages = append(s.d.Stages, Stage{
		Name: stage, DurationNs: d.Nanoseconds(), Count: 1, Concurrent: concurrent,
	})
}

// Observe records one timed occurrence of a stage.
func (s *Span) Observe(stage string, d time.Duration) { s.observe(stage, d, false) }

// ObserveConcurrent records stage time that overlapped other stages.
func (s *Span) ObserveConcurrent(stage string, d time.Duration) { s.observe(stage, d, true) }

// StartStage starts timing a stage; the returned func records it.
func (s *Span) StartStage(stage string) func() {
	if s == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { s.Observe(stage, time.Since(t0)) }
}

// Finish stamps the span's end time (idempotent).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d.End.IsZero() {
		s.d.End = time.Now()
		s.d.DurationNs = s.d.End.Sub(s.d.Start).Nanoseconds()
	}
}

// Data returns a copy of the span's current state, safe to serialize
// while the span is still being written.
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.d
	d.Stages = append([]Stage(nil), s.d.Stages...)
	if len(s.d.Attrs) > 0 {
		d.Attrs = make(map[string]string, len(s.d.Attrs))
		for k, v := range s.d.Attrs {
			d.Attrs[k] = v
		}
	}
	return d
}

// SpanRecorder is a bounded ring of finished spans, queryable by trace
// ID — the worker-side evidence that a farmed task ran on behalf of a
// coordinator job. A nil recorder discards records.
type SpanRecorder struct {
	mu    sync.Mutex
	spans []SpanData // oldest first
}

// spanRecorderCap is how many finished spans a SpanRecorder keeps.
const spanRecorderCap = 256

// NewSpanRecorder returns a recorder keeping the last spanRecorderCap spans.
func NewSpanRecorder() *SpanRecorder { return &SpanRecorder{} }

// Record appends a span snapshot, evicting the oldest past capacity.
func (r *SpanRecorder) Record(d SpanData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, d)
	if len(r.spans) > spanRecorderCap {
		r.spans = append(r.spans[:0], r.spans[len(r.spans)-spanRecorderCap:]...)
	}
}

// Spans returns all retained spans, oldest first.
func (r *SpanRecorder) Spans() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanData(nil), r.spans...)
}

// ByTrace returns the retained spans carrying the given trace ID.
func (r *SpanRecorder) ByTrace(traceID string) []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SpanData
	for _, d := range r.spans {
		if d.TraceID == traceID {
			out = append(out, d)
		}
	}
	return out
}
