package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. A metric's definition never changes
// under its name; a different measurement is a new name. BENCHMARK.json is
// the one table of names, units, directions and bounds; README.md says what
// each one measures.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the baseline median a change may lose; end-to-end only
}

// contract is BENCHMARK.json, the file at the root of the checkout that the
// benchmark is held to.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// The metric tables, read from BENCHMARK.json at start-up (loadContract).
//
// endToEnd are the metrics of the untraced run: what a user of the service
// sees. Every workload reports every one.
//
// perLayer are the metrics of the traced run, one group per module of the
// repository, measured from outside it: by timing calls into the module's
// exported functions on the workload's first trace (the probes), from the
// stage timings every job snapshot carries, and from /metrics, /healthz,
// worker /debug/spans and /proc. A metric that does not apply to a workload
// reads 0 there.
var endToEnd, perLayer []metricDef

// loadContract reads BENCHMARK.json into the metric tables and checks that
// its workloads are the ones this program defines.
func loadContract(path string) (contract, error) {
	var c contract
	b, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.Workloads) != len(specs) {
		return c, fmt.Errorf("%s names %d workloads, the benchmark defines %d", path, len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].Name {
			return c, fmt.Errorf("%s: workload %d is %q, the benchmark defines %q", path, i, w.Name, specs[i].Name)
		}
	}
	endToEnd, perLayer = c.EndToEnd, c.PerLayer
	return c, nil
}

// selfLayers are the layers the pipeline spans are attributed to; each has
// a self.<layer>_ms metric.
var selfLayers = []string{
	"client", "bpserve.upload", "bpserve.submit", "service", "profile",
	"store", "cluster", "sim", "reconstruct", "farm",
}

// stageLayer attributes a job stage (as named in a job snapshot's span) to
// the module that does its work.
var stageLayer = map[string]string{
	"profile":         "profile",
	"profile-cache":   "store",
	"cluster":         "cluster",
	"bind":            "service",
	"simulate-points": "sim",
	"adaptive-round":  "sim",
	"simulate-full":   "sim",
	"reconstruct":     "reconstruct",
}

// reportedStages are the job stages with a service.stage.<name>_ms metric.
var reportedStages = []string{
	"profile", "profile-cache", "cluster", "bind", "simulate-points", "reconstruct", "trace-decode",
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
