package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one streamd child process on loopback.
type daemon struct {
	cmd         *exec.Cmd
	addr        string // session listener
	metricsAddr string
	started     time.Time
	listening   time.Duration // process start until the listener is bound

	logMu   sync.Mutex
	logTail []string
	logDone chan struct{}
}

// startDaemon launches streamd with args plus loopback listeners on
// ephemeral ports, and returns once the daemon has logged both addresses.
func startDaemon(bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-metrics", "127.0.0.1:0", "-quiet"}, args...)
	d := &daemon{cmd: exec.Command(bin, args...), logDone: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start streamd: %w", err)
	}
	ready := make(chan struct{})
	go d.readLog(stderr, ready)
	select {
	case <-ready:
		return d, nil
	case <-d.logDone:
	case <-time.After(20 * time.Second):
	}
	d.stop()
	return nil, fmt.Errorf("streamd did not report its listeners; log: %s", d.tail())
}

// readLog scans streamd's log for the listener addresses, then keeps a
// short tail for diagnostics until the pipe closes.
func (d *daemon) readLog(r io.Reader, ready chan struct{}) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	signalled := false
	for sc.Scan() {
		line := sc.Text()
		d.logMu.Lock()
		if i := strings.Index(line, "listening on "); i >= 0 && d.addr == "" {
			d.listening = time.Since(d.started)
			d.addr = strings.Fields(line[i+len("listening on "):])[0]
		}
		if i := strings.Index(line, "metrics on http://"); i >= 0 && d.metricsAddr == "" {
			d.metricsAddr = strings.TrimSuffix(line[i+len("metrics on http://"):], "/metrics")
		}
		d.logTail = append(d.logTail, line)
		if len(d.logTail) > 20 {
			d.logTail = d.logTail[1:]
		}
		if !signalled && d.addr != "" && d.metricsAddr != "" {
			signalled = true
			close(ready)
		}
		d.logMu.Unlock()
	}
}

func (d *daemon) tail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.logTail, " | ")
}

// stop sends SIGTERM (streamd drains and exits) and waits for the process
// and its log reader; a daemon that outlives the budget is killed.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.logDone
		_ = d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%s/stat", pid)
	}
	// USER_HZ is 100 on every Linux ABI the repository builds for.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// promSample is one scraped metric family: the sum over its label sets
// and the largest single series.
type promSample struct {
	sum, max float64
	labels   []string
}

// scrape fetches streamd's /metrics and folds it by metric name.
func (d *daemon) scrape() (map[string]promSample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.metricsAddr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseProm(string(body)), nil
}

func parseProm(text string) map[string]promSample {
	out := make(map[string]promSample)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		s, seen := out[name]
		if !seen || v > s.max {
			s.max = v
		}
		s.sum += v
		if labels != "" {
			s.labels = append(s.labels, labels)
		}
		out[name] = s
	}
	return out
}
