package obs

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("trace IDs must be 16 hex chars, got %q, %q", a, b)
	}
	if a == b {
		t.Fatalf("trace IDs collide: %q", a)
	}
}

func TestSpanStageAccumulation(t *testing.T) {
	s := NewSpan("abcd", "estimate")
	s.Observe("simulate-points", 10*time.Millisecond)
	s.Observe("simulate-points", 20*time.Millisecond)
	s.Observe("reconstruct", 5*time.Millisecond)
	s.ObserveConcurrent("trace-decode", 100*time.Millisecond)
	s.SetAttr("job", "job-000001")
	s.Finish()
	s.Finish() // idempotent

	d := s.Data()
	if d.TraceID != "abcd" || d.Name != "estimate" {
		t.Fatalf("bad identity: %+v", d)
	}
	if len(d.Stages) != 3 {
		t.Fatalf("want 3 stages, got %+v", d.Stages)
	}
	sp := d.Stages[0]
	if sp.Name != "simulate-points" || sp.Count != 2 || sp.DurationNs != (30*time.Millisecond).Nanoseconds() {
		t.Errorf("simulate-points accumulation wrong: %+v", sp)
	}
	if !d.Stages[2].Concurrent {
		t.Errorf("trace-decode should be concurrent: %+v", d.Stages[2])
	}
	// Concurrent stages are excluded from the wall-clock partition.
	if got, want := d.StageSumNs(), (35 * time.Millisecond).Nanoseconds(); got != want {
		t.Errorf("StageSumNs = %d, want %d", got, want)
	}
	if d.End.IsZero() || d.DurationNs <= 0 {
		t.Errorf("Finish did not stamp end: %+v", d)
	}
	if d.Attrs["job"] != "job-000001" {
		t.Errorf("attrs lost: %+v", d.Attrs)
	}
}

func TestSpanStartStage(t *testing.T) {
	s := NewSpan("t", "n")
	stop := s.StartStage("bind")
	time.Sleep(time.Millisecond)
	stop()
	d := s.Data()
	if len(d.Stages) != 1 || d.Stages[0].Name != "bind" || d.Stages[0].DurationNs <= 0 {
		t.Fatalf("StartStage did not record: %+v", d.Stages)
	}
}

func TestSpanDataIsCopy(t *testing.T) {
	s := NewSpan("t", "n")
	s.Observe("a", time.Millisecond)
	s.SetAttr("k", "v")
	d := s.Data()
	d.Stages[0].DurationNs = 999
	d.Attrs["k"] = "mutated"
	d2 := s.Data()
	if d2.Stages[0].DurationNs == 999 || d2.Attrs["k"] != "v" {
		t.Fatal("Data() shares memory with the span")
	}
}

func TestNilSpanIsNoop(t *testing.T) {
	var s *Span
	s.Observe("x", time.Second)
	s.ObserveConcurrent("x", time.Second)
	s.SetAttr("k", "v")
	s.StartStage("x")()
	s.Finish()
	if d := s.Data(); len(d.Stages) != 0 {
		t.Fatal("nil span data not empty")
	}
}

func TestSpanRecorderRingAndByTrace(t *testing.T) {
	r := NewSpanRecorder()
	for i := 0; i <= spanRecorderCap; i++ {
		r.Record(SpanData{TraceID: fmt.Sprintf("t%d", i%2), Name: fmt.Sprintf("s%d", i)})
	}
	spans := r.Spans()
	if len(spans) != spanRecorderCap {
		t.Fatalf("ring should keep %d, got %d", spanRecorderCap, len(spans))
	}
	if spans[0].Name != "s1" || spans[len(spans)-1].Name != "s256" {
		t.Fatalf("ring kept wrong spans (want oldest-first s1..s256): first %s, last %s", spans[0].Name, spans[len(spans)-1].Name)
	}
	byT := r.ByTrace("t0")
	if len(byT) != 128 || byT[0].Name != "s2" || byT[127].Name != "s256" {
		t.Fatalf("ByTrace(t0) wrong: %d spans, %+v", len(byT), byT)
	}
	if got := r.ByTrace("missing"); len(got) != 0 {
		t.Fatalf("ByTrace(missing) = %+v", got)
	}

	var nilRec *SpanRecorder
	nilRec.Record(SpanData{})
	if nilRec.Spans() != nil || nilRec.ByTrace("x") != nil {
		t.Fatal("nil recorder should discard and return nil")
	}
}

func TestSpanDataJSONRoundTrip(t *testing.T) {
	s := NewSpan("deadbeef", "farm-task")
	s.Observe("simulate", 2*time.Millisecond)
	s.Finish()
	b, err := json.Marshal(s.Data())
	if err != nil {
		t.Fatal(err)
	}
	var d SpanData
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if d.TraceID != "deadbeef" || len(d.Stages) != 1 || d.Stages[0].Name != "simulate" {
		t.Fatalf("round trip lost data: %+v", d)
	}
}
