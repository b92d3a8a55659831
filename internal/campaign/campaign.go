package campaign

import (
	"fmt"
	"io"

	"barrierpoint/internal/store"
)

// Runner executes a campaign resumably over a store: cells already in the
// spec's manifest are served from it without recomputation, each newly
// computed cell is appended to the manifest atomically, and the walk
// follows Spec.Expand order so every run of the same spec renders the
// same matrix.
type Runner struct {
	Store *store.Store
	Cells CellRunner
	// Log receives per-cell progress lines (nil discards them). Progress
	// goes here, never into the matrix, so interrupted, resumed, local
	// and farmed runs stay byte-comparable on their primary output.
	Log io.Writer
	// MaxCells, when > 0, stops the run after that many newly computed
	// cells, leaving the manifest primed for a later resume. Used by
	// chunked runs and by tests that simulate a mid-campaign kill.
	MaxCells int
}

// Outcome is a finished (or deliberately interrupted) campaign run.
type Outcome struct {
	Spec Spec
	// Cells holds the completed cells in grid order.
	Cells []CellOutcome
	// Resumed counts cells served from the manifest; Computed counts
	// cells run this invocation.
	Resumed  int
	Computed int
	// Incomplete reports that MaxCells stopped the run with grid cells
	// still missing.
	Incomplete bool
}

// Run expands the spec and brings its manifest to completion. On error
// the manifest keeps every cell completed so far, so the campaign resumes
// from there — exactly as it would after a kill.
func (r *Runner) Run(spec Spec) (*Outcome, error) {
	spec.ApplyDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	man, err := LoadManifest(r.Store, spec)
	if err != nil {
		return nil, err
	}
	if s, ok := r.Cells.(interface{ Seed(map[string]string) }); ok {
		s.Seed(man.Traces)
	}
	cells := spec.Expand()
	out := &Outcome{Spec: spec}
	for i, c := range cells {
		id := c.ID()
		if res, ok := man.Cells[id]; ok {
			out.Cells = append(out.Cells, CellOutcome{c, res})
			out.Resumed++
			r.logf("[%d/%d] %s: resumed from manifest", i+1, len(cells), id)
			continue
		}
		if r.MaxCells > 0 && out.Computed >= r.MaxCells {
			out.Incomplete = true
			r.logf("stopping after %d computed cells (%d of %d done); rerun to resume", out.Computed, len(out.Cells), len(cells))
			break
		}
		res, err := r.Cells.RunCell(c)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", id, err)
		}
		man.Cells[id] = res
		if tr, ok := r.Cells.(interface{ Traces() map[string]string }); ok {
			man.Traces = tr.Traces()
		}
		if err := man.Save(r.Store); err != nil {
			return nil, err
		}
		out.Cells = append(out.Cells, CellOutcome{c, res})
		out.Computed++
		r.logf("[%d/%d] %s: runtime err %.2f%%, APKI diff %.3f, serial speedup %.1fx",
			i+1, len(cells), id, res.RunErrPct, res.APKIDelta, res.SerialSpeedup)
	}
	return out, nil
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}
