package barrierpoint_test

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// daemonFlags lists every flag each command's -h prints, sorted as the flag
// package prints them. A flag added, renamed or removed is a change to the
// command's interface: update this list in the same change and say why.
var daemonFlags = map[string][]string{
	"bpserve": {"addr", "drain-timeout", "farm-lease-ttl", "farm-retries", "fault", "job-wal", "log-json",
		"log-level", "max-upload-mb", "pprof", "queue", "replay-cache-mb", "store", "workers"},
	"bpworker": {"concurrency", "fault", "idle-exit", "log-json", "log-level", "max-tasks", "metrics-addr",
		"name", "poll", "pprof", "server", "store"},
	"bptool": {"cache", "confidence", "cores", "list", "scale", "skip-full", "target-ci",
		"trace", "warmup", "workload"},
	"bpcamp": {"exec", "farm-workers", "format", "list", "max-cells", "q", "spec", "store", "target-ci",
		"workers"},
}

// TestDaemonFlagSets builds each command and compares the flag names its -h
// prints with daemonFlags.
func TestDaemonFlagSets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four commands")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/bpserve", "./cmd/bpworker", "./cmd/bptool", "./cmd/bpcamp")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	flagLine := regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)
	for name, want := range daemonFlags {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, name), "-h").CombinedOutput()
			if err != nil {
				t.Fatalf("%s -h: %v\n%s", name, err, out)
			}
			var got []string
			for _, m := range flagLine.FindAllSubmatch(out, -1) {
				got = append(got, string(m[1]))
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s -h lists flags\n  %v\nwant\n  %v", name, got, want)
			}
		})
	}
}
