package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// fleet is the program under test: one bpserve and its bpworkers, each a
// subprocess over its own store directory.
type fleet struct {
	dir     string
	serve   *proc
	workers []*proc
	base    string   // bpserve URL
	wbases  []string // worker telemetry URLs
	hc      *http.Client
}

func (c *fleet) procs() []*proc { return append([]*proc{c.serve}, c.workers...) }

func (c *fleet) alive() bool {
	for _, p := range c.procs() {
		if !p.alive() {
			return false
		}
	}
	return true
}

// startFleet launches bpserve with its shipped defaults (job workers =
// GOMAXPROCS, 256 MiB replay cache, farm WAL and job journal on) and the
// workload's bpworkers, and waits until all answer.
func startFleet(cfg runConfig, tag string) (*fleet, error) {
	dir := filepath.Join(cfg.OutDir, "tmp", tag)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &fleet{dir: dir, hc: &http.Client{Timeout: 5 * time.Second}}
	// Children inherit the environment but keep their temp files inside
	// the checkout.
	childEnv := append(os.Environ(), "TMPDIR="+dir)
	ok := false
	defer func() {
		if !ok {
			c.kill()
		}
	}()

	port, err := freePort()
	if err != nil {
		return nil, err
	}
	c.base = fmt.Sprintf("http://127.0.0.1:%d", port)
	c.serve, err = startProc("bpserve", filepath.Join(cfg.BinDir, "bpserve"), []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-store", filepath.Join(dir, "store"),
		"-workers", "0", "-replay-cache-mb", "256",
	}, filepath.Join(cfg.OutDir, cfg.Spec.Name+".bpserve.log"), childEnv)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := waitReady(ctx, c.hc, c.base+"/healthz", c.serve); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Spec.Workers; i++ {
		wport, err := freePort()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("bpworker%d", i+1)
		w, err := startProc(name, filepath.Join(cfg.BinDir, "bpworker"), []string{
			"-server", c.base,
			"-store", filepath.Join(dir, name),
			"-name", name,
			"-concurrency", "1", "-poll", "10ms",
			"-metrics-addr", fmt.Sprintf("127.0.0.1:%d", wport),
		}, filepath.Join(cfg.OutDir, cfg.Spec.Name+"."+name+".log"), childEnv)
		if err != nil {
			return nil, err
		}
		c.workers = append(c.workers, w)
		wbase := fmt.Sprintf("http://127.0.0.1:%d", wport)
		c.wbases = append(c.wbases, wbase)
		if err := waitReady(ctx, c.hc, wbase+"/metrics", w); err != nil {
			return nil, err
		}
	}
	// A forced-farm job waits for workers; make sure the fleet registered.
	for cfg.Spec.Workers > 0 {
		m, err := scrapeMetrics(c.hc, c.base+"/metrics")
		if err != nil {
			return nil, err
		}
		if int(m["bp_farm_live_workers"]) >= cfg.Spec.Workers {
			break
		}
		if !c.alive() {
			return nil, errChildExited
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("workers did not register: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	ok = true
	return c, nil
}

// stop drains every child with SIGTERM (workers first, so they finish what
// they hold against a live server), then removes the stores. It reports
// whether every child exited cleanly.
func (c *fleet) stop() bool {
	clean := true
	for _, w := range c.workers {
		clean = w.stop(10*time.Second) && clean
	}
	if c.serve != nil {
		clean = c.serve.stop(35*time.Second) && clean
	}
	os.RemoveAll(c.dir)
	return clean
}

// kill ends every child at once; the error path.
func (c *fleet) kill() {
	for _, w := range c.workers {
		w.kill()
	}
	if c.serve != nil {
		c.serve.kill()
	}
	os.RemoveAll(c.dir)
}

func (c *fleet) commands() [][]string {
	var out [][]string
	for _, p := range c.procs() {
		out = append(out, p.argv)
	}
	return out
}

// cpuSeconds sums the CPU time of bpserve and, separately, its workers.
func (c *fleet) cpuSeconds() (serve, workers float64) {
	serve = c.serve.cpuSeconds()
	for _, w := range c.workers {
		workers += w.cpuSeconds()
	}
	return serve, workers
}
