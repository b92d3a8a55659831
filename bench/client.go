package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"barrierpoint/internal/obs"
	"barrierpoint/internal/service"
)

// opTimeout bounds one operation (an upload, or a job from submit to done);
// an operation that exceeds it counts as failed.
const opTimeout = 60 * time.Second

// pollInterval is the pause between job status polls. The first poll is
// immediate and the pause before the second is drawn uniformly from
// [0, pollInterval): a fixed grid would alias with jobs that take about one
// interval, and their observed latency would jump between two values a whole
// interval apart from run to run.
const pollInterval = time.Millisecond

// client drives one bpserve over HTTP. It is used by one goroutine at a
// time (the closed loop has a single client).
type client struct {
	base string
	hc   *http.Client
	rng  *rand.Rand // poll phase; seeded, so a run's schedule repeats
}

func newClient(base string, seed int64) *client {
	return &client{base: base, hc: &http.Client{Timeout: opTimeout}, rng: rand.New(rand.NewSource(seed))}
}

// uploadReply is the part of bpserve's POST /v1/traces response the
// benchmark reads.
type uploadReply struct {
	Key     string `json:"key"`
	Regions int    `json:"regions"`
	Existed bool   `json:"existed"`
	Ingest  struct {
		ProfilesCached   int `json:"profiles_cached"`
		ProfilesComputed int `json:"profiles_computed"`
	} `json:"ingest"`
}

func (c *client) do(method, path string, body []byte, want ...int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	for _, w := range want {
		if resp.StatusCode == w {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
}

// upload posts one trace file.
func (c *client) upload(trace []byte) (uploadReply, error) {
	var r uploadReply
	b, err := c.do(http.MethodPost, "/v1/traces", trace, http.StatusCreated, http.StatusOK)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("POST /v1/traces: decoding reply: %w", err)
	}
	return r, nil
}

// submit posts a job request and returns the accepted job's snapshot.
func (c *client) submit(req service.Request) (service.Snapshot, error) {
	var snap service.Snapshot
	body, err := json.Marshal(req)
	if err != nil {
		return snap, err
	}
	b, err := c.do(http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		return snap, fmt.Errorf("POST /v1/jobs: decoding reply: %w", err)
	}
	return snap, nil
}

// wait polls the job until it is terminal: once immediately, then on a
// pollInterval grid with a random phase. It returns the terminal snapshot; a
// job that ends "failed" or outlives opTimeout is an error.
func (c *client) wait(id string) (service.Snapshot, error) {
	deadline := time.Now().Add(opTimeout)
	pause := time.Duration(c.rng.Int63n(int64(pollInterval)))
	for {
		var snap service.Snapshot
		b, err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, http.StatusOK)
		if err != nil {
			return snap, err
		}
		if err := json.Unmarshal(b, &snap); err != nil {
			return snap, fmt.Errorf("GET /v1/jobs/%s: decoding reply: %w", id, err)
		}
		if snap.Status == service.StatusFailed {
			return snap, fmt.Errorf("job %s failed: %s", id, snap.Error)
		}
		if snap.Status == service.StatusDone {
			return snap, nil
		}
		if time.Now().After(deadline) {
			return snap, fmt.Errorf("job %s still %s after %v", id, snap.Status, opTimeout)
		}
		time.Sleep(pause)
		pause = pollInterval
	}
}

// selection fetches the cached selection artifact for a trace and config.
func (c *client) selection(key, signature string, maxK int) ([]byte, error) {
	q := url.Values{}
	if signature != "" {
		q.Set("signature", signature)
	}
	if maxK > 0 {
		q.Set("max_k", strconv.Itoa(maxK))
	}
	return c.do(http.MethodGet, "/v1/selections/"+key+"?"+q.Encode(), nil, http.StatusOK)
}

// metrics scrapes a Prometheus text endpoint into series → value, keyed as
// the exposition prints them ("name" or `name{label="v"}`).
func scrapeMetrics(hc *http.Client, url string) (map[string]float64, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// workerSpans fetches a worker's recent farm-task spans.
func workerSpans(hc *http.Client, base string) ([]obs.SpanData, error) {
	resp, err := hc.Get(base + "/debug/spans")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []obs.SpanData
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("GET %s/debug/spans: %w", base, err)
	}
	return out, nil
}

// estimateResult is the part of an estimate or simulate job's result the
// benchmark checks.
type estimateResult struct {
	TimeNs float64 `json:"time_ns"`
	IPC    float64 `json:"ipc"`
}

func parseEstimate(raw json.RawMessage) (estimateResult, error) {
	var r estimateResult
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("decoding job result: %w", err)
	}
	if r.TimeNs <= 0 {
		return r, fmt.Errorf("job result has time_ns %v", r.TimeNs)
	}
	return r, nil
}
