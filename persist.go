package barrierpoint

import (
	"encoding/json"
	"fmt"
	"io"

	"barrierpoint/internal/tracefile"
)

// SavedSelection is the serializable form of a barrierpoint selection: the
// durable artifact of the one-time analysis (paper Fig. 2, "one-time
// costs"). It is machine-independent and can be reused across simulator
// configurations and core counts (with cluster.Rebind for different counts).
type SavedSelection struct {
	Program      string         `json:"program"`
	Threads      int            `json:"threads"`
	Regions      int            `json:"regions"`
	K            int            `json:"k"`
	Assignment   []int          `json:"assignment"`
	Points       []BarrierPoint `json:"points"`
	RegionInstrs []uint64       `json:"region_instrs"`
	Signature    string         `json:"signature"` // options label, e.g. "combine"
	// RepDists holds each region's signature distance to its cluster
	// representative (see cluster.Result.RepDists); the adaptive sampler's
	// runner-up ordering. Absent in selections saved by older versions,
	// which load with zero distances (promotion order degrades to region
	// index, confidence intervals stay valid but looser).
	RepDists []float64 `json:"rep_dists,omitempty"`
}

// Save serializes the analysis' selection to w as JSON.
func (a *Analysis) Save(w io.Writer) error {
	instrs := make([]uint64, len(a.Selection.RegionWeights))
	for i, w := range a.Selection.RegionWeights {
		instrs[i] = uint64(w)
	}
	s := SavedSelection{
		Program:      a.Program.Name(),
		Threads:      a.Program.Threads(),
		Regions:      a.Program.Regions(),
		K:            a.Selection.K,
		Assignment:   a.Selection.Assignment,
		Points:       a.Selection.Points,
		RegionInstrs: instrs,
		Signature:    a.Config.Signature.Label(),
		RepDists:     a.Selection.RepDists,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("barrierpoint: saving selection: %w", err)
	}
	return nil
}

// LoadSelection deserializes a selection previously written by Save.
func LoadSelection(r io.Reader) (*SavedSelection, error) {
	var s SavedSelection
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("barrierpoint: loading selection: %w", err)
	}
	if len(s.Assignment) != s.Regions || len(s.RegionInstrs) != s.Regions {
		return nil, fmt.Errorf("barrierpoint: selection for %d regions has %d assignments and %d counts",
			s.Regions, len(s.Assignment), len(s.RegionInstrs))
	}
	if len(s.RepDists) != 0 && len(s.RepDists) != s.Regions {
		return nil, fmt.Errorf("barrierpoint: selection for %d regions has %d representative distances",
			s.Regions, len(s.RepDists))
	}
	for _, p := range s.Points {
		if p.Region < 0 || p.Region >= s.Regions {
			return nil, fmt.Errorf("barrierpoint: barrierpoint region %d out of range [0,%d)", p.Region, s.Regions)
		}
	}
	return &s, nil
}

// Bind attaches a saved selection to a program instance, validating that
// the program matches what was analyzed. The returned Analysis can simulate
// barrierpoints and estimate without re-profiling or re-clustering — the
// "per-simulation costs" path of the paper's Fig. 2.
func (s *SavedSelection) Bind(p Program) (*Analysis, error) {
	if p.Name() != s.Program {
		return nil, fmt.Errorf("barrierpoint: selection is for %q, program is %q", s.Program, p.Name())
	}
	if p.Regions() != s.Regions {
		return nil, fmt.Errorf("barrierpoint: selection has %d regions, program has %d", s.Regions, p.Regions())
	}
	sel := &Selection{
		K:          s.K,
		Assignment: s.Assignment,
		Points:     s.Points,
		RepDists:   s.RepDists,
	}
	weights := make([]float64, len(s.RegionInstrs))
	for i, n := range s.RegionInstrs {
		weights[i] = float64(n)
	}
	sel.RegionWeights = weights
	return &Analysis{Program: p, Config: DefaultConfig(), Selection: sel}, nil
}

// Trace persistence: alongside saved selections, whole program traces can
// be recorded to disk and replayed later. A recorded trace is the durable
// input artifact (the Fig. 2 "application" box); a saved selection is the
// durable analysis artifact. Together they make every downstream step —
// profiling, warmup capture, detailed simulation — runnable out of process
// and long after the workload generator is gone.

// SaveTrace records p into a binary trace file at path (see
// internal/tracefile for the format). The trace captures the exact dynamic
// block and access streams of every inter-barrier region, so replaying it
// reproduces signatures, selections and simulation results bit-for-bit.
func SaveTrace(path string, p Program, opts ...TraceOption) error {
	return tracefile.RecordFile(path, p, opts...)
}

// RecordTrace streams p into w in the binary trace format. It is a single
// forward pass and never seeks.
func RecordTrace(w io.Writer, p Program, opts ...TraceOption) error {
	return tracefile.Record(w, p, opts...)
}

// OpenTrace opens a recorded trace for replay. The returned file is a
// Program whose regions stream straight off disk with O(region) memory;
// close it when done.
func OpenTrace(path string) (*TraceFile, error) {
	return tracefile.Open(path)
}
