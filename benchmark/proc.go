package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything the benchmark writes: the server binary, one
// directory per run (data dirs, model file, server logs) and the reports.
const outDir = "benchmark/out"

// reaper owns every child process and scratch directory of this process,
// so that a failure or Ctrl-C leaves nothing behind.
type reaper struct {
	mu    sync.Mutex
	procs map[*exec.Cmd]struct{}
	dirs  []string
}

var children = &reaper{procs: map[*exec.Cmd]struct{}{}}

func (r *reaper) add(c *exec.Cmd) {
	r.mu.Lock()
	r.procs[c] = struct{}{}
	r.mu.Unlock()
}

func (r *reaper) addDir(d string) {
	r.mu.Lock()
	r.dirs = append(r.dirs, d)
	r.mu.Unlock()
}

// kill SIGKILLs c and waits until it has ended.
func (r *reaper) kill(c *exec.Cmd) {
	r.mu.Lock()
	_, live := r.procs[c]
	delete(r.procs, c)
	r.mu.Unlock()
	if !live {
		return
	}
	_ = c.Process.Kill() // already exited is fine
	_ = c.Wait()         // the exit status of a killed child says nothing
}

// cleanup ends every child still running and removes the run directories.
func (r *reaper) cleanup() {
	r.mu.Lock()
	procs := make([]*exec.Cmd, 0, len(r.procs))
	for c := range r.procs {
		procs = append(procs, c)
	}
	dirs := r.dirs
	r.dirs = nil
	r.mu.Unlock()
	for _, c := range procs {
		r.kill(c)
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // best effort: the directory is git-ignored scratch
	}
}

// reapOnSignal makes Ctrl-C and SIGTERM clean up before exiting.
func reapOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		children.cleanup()
		os.Exit(130)
	}()
}

// buildServer compiles cmd/eta2server from the checkout the benchmark runs
// in. go build leaves an up-to-date binary alone, so only the first run in
// a checkout pays for the build.
func buildServer() (string, error) {
	if _, err := os.Stat("cmd/eta2server"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin := filepath.Join(outDir, "bin", "eta2server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/eta2server")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/eta2server: %v\n%s", err, out)
	}
	return filepath.Abs(bin)
}

// newRunDir makes a fresh scratch directory under outDir.
func newRunDir(label string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, "run-"+label+"-")
	if err != nil {
		return "", err
	}
	children.addDir(dir)
	return filepath.Abs(dir)
}

// node is one eta2server child process.
type node struct {
	cmd  *exec.Cmd
	args []string
	bin  string
	log  string
	url  string
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts eta2server with the given flags on a free loopback port.
// Its stderr goes to logPath. spawn returns as soon as the process is
// started; waitHealthy tells when it serves.
func spawn(bin, logPath string, args ...string) (*node, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	n := &node{bin: bin, log: logPath, url: "http://" + addr,
		args: append([]string{"-addr", addr}, args...)}
	return n, n.start()
}

func (n *node) start() error {
	logf, err := os.OpenFile(n.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	n.cmd = exec.Command(n.bin, n.args...)
	n.cmd.Stderr = logf
	if err := n.cmd.Start(); err != nil {
		return fmt.Errorf("start eta2server: %w", err)
	}
	children.add(n.cmd)
	return nil
}

// restart SIGKILLs the node and starts it again with the same flags, on
// the same port and data directory.
func (n *node) restart() error {
	children.kill(n.cmd)
	return n.start()
}

func (n *node) stop() { children.kill(n.cmd) }

// logTail returns the end of the node's stderr, for error messages.
func (n *node) logTail() string {
	data, err := os.ReadFile(n.log)
	if err != nil {
		return ""
	}
	// Sampled-request lines would bury the line that says what went wrong.
	var keep []string
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.Contains(line, "msg=request") {
			keep = append(keep, line)
		}
	}
	if len(keep) > 30 {
		keep = keep[len(keep)-30:]
	}
	return strings.Join(keep, "\n")
}

// waitHealthy polls /v1/healthz until it answers 200. Polls are not
// counted as operations: a refused connection while the process boots is
// expected.
func (n *node) waitHealthy(c *client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if st, _, err := c.raw("GET", n.url+"/v1/healthz", nil); err == nil && st == 200 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("eta2server not healthy within %v:\n%s", timeout, n.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (n *node) peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(n.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
