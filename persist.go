package barrierpoint

import (
	"encoding/json"
	"fmt"
	"io"

	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
)

// SavedSelection is the serializable form of a barrierpoint selection: the
// durable artifact of the one-time analysis (paper Fig. 2, "one-time
// costs"). It is machine-independent and can be reused across simulator
// configurations and core counts (with ReboundTo for different counts).
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
	instrs := make([]uint64, len(a.Profiles))
	for i, rd := range a.Profiles {
		instrs[i] = rd.TotalInstrs
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
	return &Analysis{Program: p, Config: DefaultConfig(), Profiles: nil, Selection: sel}, nil
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

// Replay caching: regions of a recorded trace are decoded on every replay
// by default. A ReplayCache keeps fully decoded regions in a byte-bounded
// LRU keyed by trace content, so the pipeline stages that revisit regions
// — warmup capture before SimulatePoints, estimate+simulate pairs over one
// trace, campaign grids — decode each region once and replay it from
// memory with zero copies and zero allocations. Cached and uncached
// replays are bit-identical (see tracefile.RegionCache for the contract).

// ReplayCache is a bounded in-memory cache of decoded trace regions,
// shareable by any number of open traces and goroutines.
type ReplayCache = tracefile.RegionCache

// ReplayCacheStats is a snapshot of a ReplayCache's activity.
type ReplayCacheStats = tracefile.CacheStats

// DefaultReplayCacheBytes is the default ReplayCache budget (256 MiB).
const DefaultReplayCacheBytes = tracefile.DefaultRegionCacheBytes

// NewReplayCache returns a replay cache bounded to maxBytes of decoded
// region data (DefaultReplayCacheBytes if maxBytes <= 0).
func NewReplayCache(maxBytes int64) *ReplayCache {
	return tracefile.NewRegionCache(maxBytes)
}

// CachedTrace is an open recorded trace whose regions replay through a
// ReplayCache. It implements Program; Close releases the underlying file
// (cache entries survive and are shared with any other trace of the same
// content).
type CachedTrace struct {
	Program
	file *TraceFile
}

// File returns the underlying trace file.
func (t *CachedTrace) File() *TraceFile { return t.file }

// Close releases the underlying file handle.
func (t *CachedTrace) Close() error { return t.file.Close() }

// OpenTraceCached opens a recorded trace for replay through c, keyed by
// the trace's content address — so two opens of byte-identical traces
// share cached regions. A nil cache degrades to plain streaming replay
// without paying the content-hashing pass over the file.
func OpenTraceCached(path string, c *ReplayCache) (*CachedTrace, error) {
	f, err := tracefile.Open(path)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return &CachedTrace{Program: f, file: f}, nil
	}
	key, err := store.FileKey(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &CachedTrace{Program: c.Program(f, key), file: f}, nil
}

// TraceKey returns the content address of the recorded trace at path: the
// lowercase hex SHA-256 of its file bytes. This is the key under which the
// analysis service (internal/store, used by bptool -cache and bpserve)
// files the trace and every artifact derived from it, so byte-identical
// traces — recorded twice, or uploaded from different machines — share one
// cache entry.
func TraceKey(path string) (string, error) { return store.FileKey(path) }

// TraceKeyReader computes the content address of a trace read from r.
func TraceKeyReader(r io.Reader) (string, error) { return store.ReaderKey(r) }
