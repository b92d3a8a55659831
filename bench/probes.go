package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/adaptive"
	"barrierpoint/internal/cluster"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/profile"
	"barrierpoint/internal/reconstruct"
	"barrierpoint/internal/service"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/store"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/warmup"
)

// Sample counts of the probes that time one small operation many times and
// report the median.
const (
	artifactProbes = 32
	walProbes      = 64
	queueProbes    = 32
)

// prober times calls into one layer at a time and records each as a span
// under the "probe.<layer>" layer.
type prober struct {
	tr *tracer
}

// time runs fn as one probe call of the named layer function and returns
// its duration in milliseconds.
func (pb prober) time(name string, fn func()) float64 {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	layer, _, _ := strings.Cut(name, ".")
	pb.tr.add(0, "", "probe."+name, "probe."+layer, t0, t1)
	return float64(t1.Sub(t0).Nanoseconds()) / 1e6
}

// drain replays every thread of a region to its end and returns the
// instructions seen.
func drain(r trace.Region, threads int) uint64 {
	var instrs uint64
	var be trace.BlockExec
	for t := 0; t < threads; t++ {
		s := r.Thread(t)
		for s.Next(&be) {
			instrs += uint64(be.Instrs)
		}
	}
	return instrs
}

func drainProgram(p trace.Program) uint64 {
	var instrs uint64
	for i := 0; i < p.Regions(); i++ {
		instrs += drain(p.Region(i), p.Threads())
	}
	return instrs
}

// runProbes measures each layer from outside, in this process, by calling
// its exported functions on the trace of the workload's first rep under
// that rep's configuration. dir is scratch space for the stores the probes
// open. Results land in values under the per-layer metric names.
func runProbes(tr *tracer, values map[string]float64, first step, sp spec, dir string) error {
	pb := prober{tr: tr}
	data := first.Trace.Data
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg, err := service.ConfigFor(first.Signature, first.MaxK)
	if err != nil {
		return err
	}
	mode, err := bp.ParseWarmup(sp.Warmup)
	if err != nil {
		return err
	}

	// tracefile: streaming decode as the upload path does it, then replay
	// from a file, cold and through the decoded-region cache.
	var chunks []tracefile.RegionChunks
	var info tracefile.StreamInfo
	var derr error
	ms := pb.time("tracefile.decode", func() {
		info, derr = tracefile.DecodeStream(bytes.NewReader(data), func(rc tracefile.RegionChunks) error {
			chunks = append(chunks, rc)
			drain(rc.Region(), len(rc.Chunks))
			return nil
		})
	})
	if derr != nil {
		return fmt.Errorf("tracefile.DecodeStream: %w", derr)
	}
	values["tracefile.decode_ms"] = ms
	values["tracefile.decode_mb_per_s"] = float64(len(data)) / 1e6 / (ms / 1e3)

	path := filepath.Join(dir, "probe.bptrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	var f *tracefile.File
	var totalInstrs uint64
	values["tracefile.replay_ms"] = pb.time("tracefile.replay", func() {
		if f, err = tracefile.Open(path); err == nil {
			totalInstrs = drainProgram(f)
		}
	})
	if err != nil {
		return fmt.Errorf("tracefile.Open: %w", err)
	}
	defer f.Close()
	cached := tracefile.NewRegionCache(0).Program(f, first.Trace.SHA)
	drainProgram(cached)
	values["tracefile.replay_cached_ms"] = pb.time("tracefile.replay_cached", func() { drainProgram(cached) })

	// profile: BBV + LDV collection, region by region.
	profiles := make([]*signature.RegionData, info.Regions)
	ms = pb.time("profile.region", func() {
		for i := range profiles {
			profiles[i] = profile.Region(cached.Region(i), info.Threads)
		}
	})
	values["profile.region_ms"] = ms
	values["profile.minstr_per_s"] = float64(totalInstrs) / 1e6 / (ms / 1e3)

	// signature: the profile codec, both ways.
	blobs := make([][]byte, len(profiles))
	values["signature.encode_ms"] = pb.time("signature.encode", func() {
		for i, rd := range profiles {
			blobs[i] = signature.EncodeRegionData(rd)
		}
	})
	var blobBytes int
	for _, b := range blobs {
		blobBytes += len(b)
	}
	values["signature.profile_kb"] = float64(blobBytes) / 1024
	values["signature.decode_ms"] = pb.time("signature.decode", func() {
		for _, b := range blobs {
			if _, err = signature.DecodeRegionData(b); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("signature.DecodeRegionData: %w", err)
	}

	// store: a fresh store's trace, profile, artifact and WAL writes.
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	var key string
	values["store.put_trace_ms"] = pb.time("store.put_trace", func() { key, _, err = st.PutTrace(bytes.NewReader(data)) })
	if err != nil {
		return fmt.Errorf("store.PutTrace: %w", err)
	}
	// One put and one get per distinct digest: a repeated region's put is a
	// stat, not a publish.
	var puts, gets []float64
	fresh := make(map[string]bool)
	for i, rc := range chunks {
		if fresh[rc.Digest] {
			continue
		}
		fresh[rc.Digest] = true
		puts = append(puts, 1e3*pb.time("store.put_profile", func() {
			_, err = st.PutProfile(rc.Digest, signature.CodecVersion, blobs[i])
		}))
		if err != nil {
			return fmt.Errorf("store.PutProfile: %w", err)
		}
	}
	for digest := range fresh {
		gets = append(gets, 1e3*pb.time("store.get_profile", func() {
			_, err = st.GetProfile(digest, signature.CodecVersion)
		}))
		if err != nil {
			return fmt.Errorf("store.GetProfile: %w", err)
		}
	}
	values["store.put_profile_us"] = median(puts)
	values["store.get_profile_us"] = median(gets)
	puts, gets = nil, nil
	artifact := bytes.Repeat([]byte("x"), 1024)
	for i := 0; i < artifactProbes; i++ {
		name := fmt.Sprintf("probe-%d.json", i)
		puts = append(puts, 1e3*pb.time("store.put_artifact", func() { err = st.PutArtifact(key, name, artifact) }))
		if err != nil {
			return fmt.Errorf("store.PutArtifact: %w", err)
		}
		gets = append(gets, 1e3*pb.time("store.get_artifact", func() { _, err = st.GetArtifact(key, name) }))
		if err != nil {
			return fmt.Errorf("store.GetArtifact: %w", err)
		}
	}
	values["store.put_artifact_us"] = median(puts)
	values["store.get_artifact_us"] = median(gets)
	wal, err := store.OpenWAL(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	record := bytes.Repeat([]byte("w"), 256)
	var appends []float64
	for i := 0; i < walProbes; i++ {
		appends = append(appends, 1e3*pb.time("store.wal_append", func() { err = wal.Append(record) }))
		if err != nil {
			wal.Close()
			return fmt.Errorf("store.WAL.Append: %w", err)
		}
	}
	if err := wal.Close(); err != nil {
		return err
	}
	values["store.wal_append_us"] = median(appends)

	// cluster: signature assembly + projection, then the whole selection.
	values["cluster.project_ms"] = pb.time("cluster.project", func() {
		svs, _ := signature.BuildAll(profiles, cfg.Signature)
		cluster.ProjectAll(svs, cfg.Cluster.Dim, cfg.Cluster.Seed)
	})
	var sel *cluster.Result
	values["cluster.select_ms"] = pb.time("cluster.select", func() {
		svs, weights := signature.BuildAll(profiles, cfg.Signature)
		sel, err = cluster.Select(svs, weights, cfg.Cluster)
	})
	if err != nil {
		return fmt.Errorf("cluster.Select: %w", err)
	}
	values["cluster.k"] = float64(sel.K)
	a, err := bp.AnalyzeWithProfiles(cached, cfg, profiles)
	if err != nil {
		return err
	}
	points := make([]int, len(a.Selection.Points))
	var pointInstrs uint64
	for i, p := range a.Selection.Points {
		points[i] = p.Region
		pointInstrs += profiles[p.Region].TotalInstrs
	}

	// warmup: one functional pass capturing every point, then the farm's
	// unit of work, one point at a time with its own prefix pass.
	mc, err := service.MachineFor(info.Threads, 0)
	if err != nil {
		return err
	}
	capacity := mc.L3.Lines() * mc.Sockets
	values["warmup.capture_ms"] = pb.time("warmup.capture", func() { warmup.Capture(cached, points, capacity) })
	ms = pb.time("warmup.capture_per_point", func() {
		for _, region := range points {
			if _, err = bp.SimulatePoint(cached, region, mc, mode); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("bp.SimulatePoint: %w", err)
	}
	values["warmup.capture_per_point_ms"] = ms / float64(len(points))

	// sim: the points with no warm-up (pure detailed simulation), then the
	// whole program.
	var results map[int]bp.RegionResult
	values["sim.points_ms"] = pb.time("sim.points", func() { results, err = a.SimulatePoints(mc, bp.ColdWarmup) })
	if err != nil {
		return fmt.Errorf("SimulatePoints: %w", err)
	}
	ms = pb.time("sim.full", func() { _, err = bp.SimulateFull(cached, mc) })
	if err != nil {
		return fmt.Errorf("bp.SimulateFull: %w", err)
	}
	values["sim.full_ms"] = ms
	values["sim.minstr_per_s"] = float64(totalInstrs) / 1e6 / (ms / 1e3)
	values["sim.detail_instr_share"] = float64(pointInstrs) / float64(totalInstrs)

	// reconstruct: intervals + the weighted sum. Nothing measurable should
	// ever depend on it; a guard.
	values["reconstruct.intervals_us"] = 1e3 * pb.time("reconstruct.intervals", func() {
		if _, err = adaptive.Intervals(a.Selection, results, adaptive.Options{}); err == nil {
			_, err = reconstruct.Reconstruct(a.Selection, results)
		}
	})
	if err != nil {
		return fmt.Errorf("reconstruct: %w", err)
	}

	// service: a whole upload without HTTP; upload_ms minus this is the
	// transport.
	ist, err := store.Open(filepath.Join(dir, "ingest-store"))
	if err != nil {
		return err
	}
	mgr := service.New(ist, 0, 0)
	values["service.ingest_ms"] = pb.time("service.ingest", func() { _, err = mgr.IngestTrace(bytes.NewReader(data)) })
	if serr := mgr.Shutdown(context.Background()); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("service.IngestTrace: %w", err)
	}

	// farm: the durable queue's bookkeeping for one task, with no worker
	// and no network in between.
	q, _, err := farm.NewDurableQueue(st, farm.Config{}, filepath.Join(dir, "farm.wal"))
	if err != nil {
		return err
	}
	defer q.Close()
	worker := q.Register("probe")
	result, err := json.Marshal(results[points[0]])
	if err != nil {
		return err
	}
	var trips []float64
	for i := 0; i < queueProbes; i++ {
		trips = append(trips, 1e3*pb.time("farm.queue_roundtrip", func() {
			// Distinct regions, so no task dedups against a stored result.
			if _, err = q.Enqueue(farm.Spec{TraceKey: key, Region: i, Sockets: mc.Sockets, Warmup: "cold"}); err != nil {
				return
			}
			tasks := q.Lease(worker, 1)
			if len(tasks) != 1 {
				err = fmt.Errorf("leased %d tasks, want 1", len(tasks))
				return
			}
			err = q.Complete(worker, tasks[0].ID, result)
		}))
		if err != nil {
			return fmt.Errorf("farm queue round trip: %w", err)
		}
	}
	values["farm.queue_roundtrip_us"] = median(trips)
	return nil
}
