package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one child process of the benchmark (bpserve or a bpworker) with
// its stderr captured to a log file.
type proc struct {
	name   string
	argv   []string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result; read only after exited is closed
}

// startProc launches bin with args, sending the child's stdout and stderr
// to logPath.
func startProc(name, bin string, args []string, logPath string, env []string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	cmd.Env = env
	// If the benchmark itself is killed, its children must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, argv: append([]string{bin}, args...), cmd: cmd, log: lf, exited: make(chan struct{})}
	started := make(chan error)
	go func() {
		// The parent-death signal follows the thread that forked, not the
		// process: fork from a thread that lives as long as the child.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		err := cmd.Start()
		started <- err
		if err != nil {
			return
		}
		p.err = cmd.Wait()
		close(p.exited)
	}()
	if err := <-started; err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// alive reports whether the child is still running.
func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop asks the child to drain with SIGTERM, kills it if it has not exited
// within grace, and waits until it is gone. It reports whether the child
// exited cleanly on its own.
func (p *proc) stop(grace time.Duration) bool {
	if !p.alive() {
		p.kill()
		return false
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // the process may have just exited
	select {
	case <-p.exited:
	case <-time.After(grace):
		p.kill()
		return false
	}
	p.log.Close()
	return p.err == nil
}

// kill ends the child immediately, waits for it and closes its log.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine
	<-p.exited
	p.log.Close()
}

// cpuSeconds reads the child's consumed user+system CPU time from
// /proc/<pid>/stat. It returns 0 once the process is gone.
func (p *proc) cpuSeconds() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.pid()))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the ")".
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / clockTicksPerSecond
}

// clockTicksPerSecond is USER_HZ, which Linux fixes at 100 for every
// architecture Go supports.
const clockTicksPerSecond = 100

// rssPeakMB reads the child's peak resident set (VmHWM) in MB.
func (p *proc) rssPeakMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid()))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// freePort finds a free TCP port on the loopback by binding port 0 and
// closing the listener: bpserve does not report which port ":0" gave it.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls url until it answers 200, failing fast if the child
// exits first.
func waitReady(ctx context.Context, hc *http.Client, url string, p *proc) error {
	for {
		if !p.alive() {
			return fmt.Errorf("%s exited before becoming ready: %v (see its log)", p.name, p.err)
		}
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not ready at %s: %w", p.name, url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// buildBinaries compiles cmd/bpserve and cmd/bpworker of the checkout at
// root into binDir and returns how long that took.
func buildBinaries(root, binDir string) (time.Duration, error) {
	if _, err := os.Stat(filepath.Join(root, "cmd", "bpserve")); err != nil {
		return 0, fmt.Errorf("%s is not a checkout of the repository: %w", root, err)
	}
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/bpserve", "./cmd/bpworker")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/bpserve ./cmd/bpworker: %w", err)
	}
	return time.Since(t0), nil
}

// fsType names the filesystem holding dir, as /proc/mounts reports it for
// the longest mount point that is a prefix of dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

var errChildExited = errors.New("a child process exited during the run")
