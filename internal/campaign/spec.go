package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	bp "barrierpoint"
	"barrierpoint/internal/service"
	"barrierpoint/internal/store"
	"barrierpoint/internal/workload"
)

// Spec declares a sweep: the cross product of workloads, thread counts,
// machine configs (socket counts), signature variants and warmup modes,
// at one workload scale. See the package documentation for the JSON form
// and field semantics.
type Spec struct {
	Name      string   `json:"name"`
	Workloads []string `json:"workloads"`
	Threads   []int    `json:"threads"`
	// Sockets lists Table I machine sizes; 0 derives the socket count
	// from the thread count (threads/8). Defaults to [0].
	Sockets    []int    `json:"sockets,omitempty"`
	Signatures []string `json:"signatures,omitempty"` // default ["combine"]
	// MaxKs lists maximum-cluster-count overrides to sweep; 0 (the default)
	// is the paper's clustering default. The per-region profiles are keyed
	// by region content, independent of MaxK, so a MaxKs sweep profiles
	// each trace once and pays only k-means per extra value.
	MaxKs   []int    `json:"max_ks,omitempty"`  // default [0]
	Warmups []string `json:"warmups,omitempty"` // default ["mru+prev"]
	Scale   float64  `json:"scale,omitempty"`   // default 1.0
	// TargetCI, when positive, makes every estimate adaptive: the service
	// promotes extra regions to detailed simulation until the runtime
	// estimate's relative confidence interval reaches the target (see
	// internal/adaptive). It changes cell results, so it is part of the
	// identity hash; zero (the default) is the plain one-rep-per-cluster
	// estimate and hashes identically to specs written before the field
	// existed.
	TargetCI float64 `json:"target_ci,omitempty"`
	// Exec selects where cells' barrierpoint simulations run: "auto"
	// (default), "local" or "farm". Exec never affects results, so it is
	// excluded from the spec's identity hash.
	Exec string `json:"exec,omitempty"`
}

// Load parses, defaults and validates a JSON spec. Unknown fields are
// rejected so a typo in a sweep definition fails instead of silently
// shrinking the grid.
func Load(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parsing spec: %w", err)
	}
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// ApplyDefaults fills the optional dimensions with their single-value
// defaults so Expand and Validate see a fully specified grid.
func (s *Spec) ApplyDefaults() {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if len(s.Sockets) == 0 {
		s.Sockets = []int{0}
	}
	if len(s.Signatures) == 0 {
		s.Signatures = []string{"combine"}
	}
	if len(s.Warmups) == 0 {
		s.Warmups = []string{bp.MRUPrevWarmup.String()}
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
}

// Validate rejects malformed specs with errors that name the offending
// value: unknown benchmarks, bad thread counts, non-positive scales,
// unknown warmup/signature/exec labels, and socket counts that cannot
// host any of the spec's thread counts.
func (s *Spec) Validate() error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("campaign: spec %q has no workloads", s.Name)
	}
	for _, w := range s.Workloads {
		if !workload.Exists(w) {
			return fmt.Errorf("campaign: unknown benchmark %q (known: %s)",
				w, strings.Join(workload.Names(), ", "))
		}
	}
	if len(s.Threads) == 0 {
		return fmt.Errorf("campaign: spec %q has no thread counts", s.Name)
	}
	for _, th := range s.Threads {
		if th < 8 || th > 64 || th%8 != 0 {
			return fmt.Errorf("campaign: threads must be a multiple of 8 in [8, 64], got %d", th)
		}
	}
	for _, sk := range s.Sockets {
		if sk < 0 {
			return fmt.Errorf("campaign: sockets must be >= 0 (0 derives from threads), got %d", sk)
		}
		if sk == 0 {
			continue
		}
		// An explicit socket count must host at least one of the spec's
		// thread counts; cells whose threads mismatch are skipped by
		// Expand rather than failing mid-run.
		ok := false
		for _, th := range s.Threads {
			if sk*8 == th {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("campaign: %d sockets (%d cores) matches none of the thread counts %v", sk, sk*8, s.Threads)
		}
	}
	if !(s.Scale > 0) { // also catches NaN
		return fmt.Errorf("campaign: scale must be > 0, got %v", s.Scale)
	}
	if s.TargetCI < 0 || s.TargetCI >= 1 || s.TargetCI != s.TargetCI {
		return fmt.Errorf("campaign: target_ci must be in [0, 1), got %v", s.TargetCI)
	}
	for _, sig := range s.Signatures {
		if _, err := service.ParseSignature(sig); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	for _, k := range s.MaxKs {
		if k < 0 {
			return fmt.Errorf("campaign: max_ks entries must be >= 0 (0 is the default clustering), got %d", k)
		}
	}
	for _, wm := range s.Warmups {
		if _, err := bp.ParseWarmup(wm); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	switch s.Exec {
	case "", service.ExecAuto, service.ExecLocal, service.ExecFarm:
	default:
		return fmt.Errorf("campaign: unknown exec mode %q (want auto, local or farm)", s.Exec)
	}
	return nil
}

// identity covers exactly the fields that determine cell results. Name
// (presentation) and Exec (placement) are excluded: a renamed spec hashes
// the same, and a farmed campaign resumes a local one's manifest.
type identity struct {
	Workloads  []string `json:"workloads"`
	Threads    []int    `json:"threads"`
	Sockets    []int    `json:"sockets"`
	Signatures []string `json:"signatures"`
	Warmups    []string `json:"warmups"`
	Scale      float64  `json:"scale"`
	// omitempty keeps zero-target specs on the hash they had before the
	// field existed, so old manifests still resume. Same for MaxKs: a spec
	// without a max_ks sweep hashes as it always did.
	TargetCI float64 `json:"target_ci,omitempty"`
	MaxKs    []int   `json:"max_ks,omitempty"`
}

// Hash returns the spec's identity hash (see store.HashJSON).
func (s Spec) Hash() string {
	return store.HashJSON(identity{s.Workloads, s.Threads, s.Sockets, s.Signatures, s.Warmups, s.Scale, s.TargetCI, s.MaxKs})
}

// ManifestName is the store-side manifest filename of this spec.
func (s Spec) ManifestName() string {
	name := s.Name
	if name == "" {
		name = "campaign"
	}
	return fmt.Sprintf("%s-%s.json", store.SanitizeLabel(name), s.Hash())
}

// Cell is one point of the expanded grid.
type Cell struct {
	Workload  string  `json:"workload"`
	Threads   int     `json:"threads"`
	Sockets   int     `json:"sockets"` // 0 = derived from Threads
	Signature string  `json:"signature"`
	MaxK      int     `json:"max_k,omitempty"` // 0 = default clustering
	Warmup    string  `json:"warmup"`
	Scale     float64 `json:"scale"`
}

// ID is the cell's manifest key: its grid coordinates, in the store's
// artifact-name charset. Scale is spec-wide and already part of the
// manifest's identity hash, so it does not reappear here. The MaxK
// suffix appears only for explicit overrides, so default-clustering cell
// IDs (and the manifests naming them) are unchanged from older versions.
func (c Cell) ID() string {
	id := fmt.Sprintf("%s-%dt-s%d-%s-%s", c.Workload, c.Threads, c.Sockets,
		store.SanitizeLabel(c.Signature), store.SanitizeLabel(c.Warmup))
	if c.MaxK > 0 {
		id += fmt.Sprintf("-k%d", c.MaxK)
	}
	return id
}

// EffectiveSockets is the Table I machine size the cell simulates.
func (c Cell) EffectiveSockets() int {
	if c.Sockets != 0 {
		return c.Sockets
	}
	return c.Threads / 8
}

// Expand enumerates the grid in deterministic order: workloads outermost,
// then threads, sockets, signatures, max-k overrides, warmups. (Explicit
// socket counts that cannot host a thread count are skipped; Validate
// guarantees each matches at least one.) Every resumed or re-run campaign
// walks cells in exactly this order, which is what makes matrices
// comparable byte for byte.
func (s Spec) Expand() []Cell {
	maxKs := s.MaxKs
	if len(maxKs) == 0 {
		maxKs = []int{0}
	}
	var cells []Cell
	for _, w := range s.Workloads {
		for _, th := range s.Threads {
			for _, sk := range s.Sockets {
				if sk != 0 && sk*8 != th {
					continue
				}
				for _, sig := range s.Signatures {
					for _, k := range maxKs {
						for _, wm := range s.Warmups {
							cells = append(cells, Cell{
								Workload:  w,
								Threads:   th,
								Sockets:   sk,
								Signature: sig,
								MaxK:      k,
								Warmup:    wm,
								Scale:     s.Scale,
							})
						}
					}
				}
			}
		}
	}
	return cells
}
