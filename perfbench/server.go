package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The RSS watchdog: tdserve is killed the moment its resident set passes
// the ceiling, and the request in flight counts as failed.
const (
	rssCeilingMB = 1024
	watchPoll    = 10 * time.Millisecond
)

// server is one tdserve process under the watchdog.
type server struct {
	base   string
	cmd    *exec.Cmd
	exited chan struct{}
	stderr *tailBuffer

	killed  atomic.Bool  // the watchdog killed the process
	peakKB  atomic.Int64 // highest VmHWM seen
	lastCPU atomic.Int64 // CPU time read just before a watchdog kill
	stopped chan struct{}
	watched chan struct{}
}

type serverOpts struct {
	bin   string
	store string // -store FILE, "" for none
	procs int    // GOMAXPROCS
}

// startServer spawns tdserve on a free port, meters-only, and returns once
// it has printed its address. The process dies with the benchmark
// (Pdeathsig) should the benchmark itself be killed.
func startServer(o serverOpts) (*server, error) {
	args := []string{"-addr", "127.0.0.1:0", "-request-timeout", "0"}
	if o.store != "" {
		args = append(args, "-store", o.store)
	}
	cmd := exec.Command(o.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, exited: make(chan struct{}), stderr: &tailBuffer{},
		stopped: make(chan struct{}), watched: make(chan struct{})}
	cmd.Stderr = s.stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start tdserve: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "tdserve: listening on "); ok {
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait() // the exit status is judged by the caller (killed, stop)
		close(s.exited)
	}()
	go s.watch()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case <-s.exited:
		s.stop()
		return nil, fmt.Errorf("tdserve exited before listening: %s", s.stderr.String())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("tdserve did not listen within 30s")
	}
}

// watch polls the process's memory: it tracks the peak resident set and
// kills the process at the ceiling.
func (s *server) watch() {
	defer close(s.watched)
	t := time.NewTicker(watchPoll)
	defer t.Stop()
	for {
		rss, hwm := s.memKB()
		if hwm > s.peakKB.Load() {
			s.peakKB.Store(hwm)
		}
		if rss > rssCeilingMB<<10 && !s.killed.Load() {
			s.lastCPU.Store(s.cpuNS())
			s.killed.Store(true)
			_ = s.cmd.Process.Kill() // the process may have exited already
		}
		select {
		case <-t.C:
		case <-s.stopped:
			return
		case <-s.exited:
			return
		}
	}
}

// memKB reads VmRSS and VmHWM from /proc; zeros once the process is gone.
func (s *server) memKB() (rss, hwm int64) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		switch k {
		case "VmRSS":
			rss = n
		case "VmHWM":
			hwm = n
		}
	}
	return rss, hwm
}

// cpuNS is the process's CPU time in nanoseconds: the sum of every
// thread's scheduler run time (/proc/PID/task/*/schedstat), which the
// kernel keeps at nanosecond resolution, unlike the 10 ms ticks of
// /proc/PID/stat.
func (s *server) cpuNS() int64 {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var sum int64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			sum += n
		}
	}
	return sum
}

// alive reports whether the process is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// stop drains tdserve with SIGTERM (SIGKILL after 30s) and waits for the
// process and the watchdog to end.
func (s *server) stop() {
	if s.alive() {
		_, hwm := s.memKB()
		if hwm > s.peakKB.Load() {
			s.peakKB.Store(hwm)
		}
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(30 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	select {
	case <-s.stopped:
	default:
		close(s.stopped)
	}
	<-s.watched
}

// waitHealthy polls GET /healthz until it answers 200.
func (s *server) waitHealthy(c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if !s.alive() {
			return fmt.Errorf("tdserve exited during start-up: %s", s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("tdserve /healthz not ok within 30s")
}

// counters reads the /metrics counter block.
func (s *server) counters(c *http.Client) (map[string]int64, error) {
	resp, err := c.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return m.Counters, nil
}

// response is the part of a /infer answer the gates read.
type response struct {
	Key     string          `json:"key"`
	Mode    string          `json:"mode"`
	Source  string          `json:"source"`
	Verdict string          `json:"verdict"`
	Winner  string          `json:"winner"`
	Cert    json.RawMessage `json:"cert"`
}

// post sends one /infer request and classifies a failure as "status",
// "transport" or "timeout" (the watchdog's kills are told apart by the
// caller).
func post(ctx context.Context, c *http.Client, url string, body []byte) (response, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{}, "transport"
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || os.IsTimeout(err) {
			return response{}, "timeout"
		}
		return response{}, "transport"
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, "transport"
	}
	if resp.StatusCode != http.StatusOK {
		return response{}, "status"
	}
	var r response
	if err := json.Unmarshal(data, &r); err != nil {
		return response{}, "status"
	}
	return r, ""
}

// tailBuffer keeps the last 4 KiB written to it (tdserve's stderr).
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > 4096 {
		b.buf = b.buf[len(b.buf)-4096:]
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.TrimSpace(string(b.buf))
}
