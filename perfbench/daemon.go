package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// token authenticates every benchmark request at Administrator clearance
// (ingest, checkpoint and replication need it; search is unaffected).
const token = "perfbench"

// env is what every part of a run shares: the daemon binary under test and
// the scratch directory runs write into.
type env struct {
	daemonBin string
	work      string // this run's scratch directory
	cache     string // survives runs: the mined base set
	start     time.Time
	seq       int
}

// daemonFlags are the flags every benchmark daemon runs with besides its
// address and data directory: the defaults, durable, fsync on every commit.
func daemonFlags() []string {
	return []string{"-fsync", "always", "-token", token + "=bench:admin"}
}

type daemon struct {
	cmd     *exec.Cmd
	url     string
	started time.Time
	logf    *os.File
	done    chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs classminerd on dataDir; started marks the exec.
func startDaemon(e *env, dataDir string, extra []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	e.seq++
	logf, err := os.Create(filepath.Join(e.work, fmt.Sprintf("daemon-%d.log", e.seq)))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", dataDir}, daemonFlags()...)
	args = append(args, extra...)
	cmd := exec.Command(e.daemonBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark that dies unexpectedly still takes its daemons with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), logf: logf, done: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { cmd.Wait(); close(d.done) }()
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("classminerd exited during start-up (see %s)", d.logf.Name())
		default:
		}
		resp, err := c.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("classminerd at %s not ready after %v", d.url, limit)
}

// kill SIGKILLs the daemon (a crash: no shutdown checkpoint runs) and waits
// for it to exit. Safe to call twice.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.done
	d.logf.Close()
}

// statusMB reads a memory field (such as VmHWM) of the daemon's
// /proc/<pid>/status, in MB.
func (d *daemon) statusMB(field string) float64 {
	return procStatusMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid), field)
}

// procStatusMB reads a memory field from a /proc status file, in MB.
func procStatusMB(status, field string) float64 {
	b, err := os.ReadFile(status)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// client is one HTTP/1.1 connection to a server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// call issues one request and returns the status and body.
func (c *client) call(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// do is call that treats any non-2xx status as an error.
func (c *client) do(method, path string, body []byte) ([]byte, error) {
	st, b, err := c.call(method, path, body)
	if err != nil {
		return nil, err
	}
	if st/100 != 2 {
		return nil, fmt.Errorf("%s %s: %d %s", method, path, st, bytes.TrimSpace(b))
	}
	return b, nil
}

// jobView is the part of GET /v1/jobs/{id} the benchmark reads.
type jobView struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"`
	Video    string    `json:"video"`
	Error    string    `json:"error"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// ingestWait submits an ingest and polls its job until it settles.
func (c *client) ingestWait(body []byte, poll time.Duration) error {
	b, err := c.do("POST", "/v1/videos", body)
	if err != nil {
		return err
	}
	var j jobView
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	for {
		switch j.Status {
		case "done":
			return nil
		case "failed":
			return fmt.Errorf("job %s failed: %s", j.ID, j.Error)
		}
		time.Sleep(poll)
		b, err := c.do("GET", "/v1/jobs/"+j.ID, nil)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &j); err != nil {
			return err
		}
	}
}

// promSample is one scraped series: name{labels} value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// scrape reads GET /metrics into samples.
func scrape(c *client) (metricSet, error) {
	b, err := c.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	var out metricSet
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
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
		key := line[:sp]
		s := promSample{name: key, value: v}
		if i := strings.IndexByte(key, '{'); i >= 0 {
			s.name, s.labels = key[:i], key[i:]
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// metricSet is a scrape indexed for lookups.
type metricSet []promSample

// sum totals every series of a metric whose labels contain all of match.
func (m metricSet) sum(name string, match ...string) float64 {
	var t float64
	for _, s := range m {
		if s.name != name {
			continue
		}
		ok := true
		for _, want := range match {
			if !strings.Contains(s.labels, want) {
				ok = false
				break
			}
		}
		if ok {
			t += s.value
		}
	}
	return t
}

// buckets returns a histogram's cumulative buckets (summed across label
// sets matching match) as (upper bound, count) sorted by bound.
func (m metricSet) buckets(name string, match ...string) [][2]float64 {
	acc := map[float64]float64{}
	for _, s := range m {
		if s.name != name+"_bucket" {
			continue
		}
		ok := true
		for _, want := range match {
			if !strings.Contains(s.labels, want) {
				ok = false
			}
		}
		if !ok {
			continue
		}
		i := strings.Index(s.labels, `le="`)
		if i < 0 {
			continue
		}
		rest := s.labels[i+4:]
		le := rest[:strings.IndexByte(rest, '"')]
		ub := math.Inf(1)
		if le != "+Inf" {
			ub, _ = strconv.ParseFloat(le, 64)
		}
		acc[ub] += s.value
	}
	out := make([][2]float64, 0, len(acc))
	for ub, n := range acc {
		out = append(out, [2]float64{ub, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// histDelta is the histogram of observations made between two scrapes.
func histDelta(before, after metricSet, name string, match ...string) [][2]float64 {
	a := after.buckets(name, match...)
	b := before.buckets(name, match...)
	prev := map[float64]float64{}
	for _, x := range b {
		prev[x[0]] = x[1]
	}
	for i := range a {
		a[i][1] -= prev[a[i][0]]
	}
	return a
}

// histQuantile estimates quantile q of a cumulative-bucket histogram by
// linear interpolation inside the bucket, the Prometheus convention.
func histQuantile(b [][2]float64, q float64) float64 {
	if len(b) == 0 || b[len(b)-1][1] <= 0 {
		return 0
	}
	rank := q * b[len(b)-1][1]
	lo, prevN := 0.0, 0.0
	for _, x := range b {
		if x[1] >= rank {
			if math.IsInf(x[0], 1) {
				return lo
			}
			if x[1] == prevN {
				return x[0]
			}
			return lo + (x[0]-lo)*(rank-prevN)/(x[1]-prevN)
		}
		lo, prevN = x[0], x[1]
	}
	return lo
}
