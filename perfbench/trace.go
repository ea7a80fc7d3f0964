package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"classminer"
	"classminer/internal/metrics"
	"classminer/internal/server"
)

// The traced run hosts server.New in-process on a loopback listener, with
// the options classminerd passes by default, and times calls into each
// layer from the benchmark's own code: an outer HTTP middleware records one
// span per request, and a decorator around the server.Library interface
// records one span per library call. Spans of one request share a request
// id carried in the request context (or, for the one context-free call,
// SearchBatch, found through the handler goroutine); async ingest jobs are
// linked to their POST by video name. Spans stay in memory and are reduced
// to metrics when the run ends.

type span struct {
	name       string
	rid        uint64 // 0 for spans outside a request (jobs, rebuilds)
	video      string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

type tracer struct {
	mu    sync.Mutex
	spans []span
	jobs  []jobView
	next  atomic.Uint64
	byG   sync.Map // handler goroutine id → request id
}

type ridKey struct{}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) noteJob(j *jobView) {
	t.mu.Lock()
	t.jobs = append(t.jobs, *j)
	t.mu.Unlock()
}

// goid is the current goroutine's id, parsed from its stack header.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(buf[:n])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}

func (t *tracer) ridOf(ctx context.Context) uint64 {
	if ctx != nil {
		if id, ok := ctx.Value(ridKey{}).(uint64); ok {
			return id
		}
	}
	if id, ok := t.byG.Load(goid()); ok {
		return id.(uint64)
	}
	return 0
}

// captureWriter keeps the head of a response so a 202 can be linked to the
// video its job will register.
type captureWriter struct {
	http.ResponseWriter
	status int
	head   []byte
}

func (c *captureWriter) WriteHeader(code int) { c.status = code; c.ResponseWriter.WriteHeader(code) }
func (c *captureWriter) Write(b []byte) (int, error) {
	if len(c.head) < 512 {
		c.head = append(c.head, b[:min(len(b), 512-len(c.head))]...)
	}
	return c.ResponseWriter.Write(b)
}

// middleware records one span per request, named by method and path
// class, and threads the request id through the context.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := t.next.Add(1)
		g := goid()
		t.byG.Store(g, rid)
		cw := &captureWriter{ResponseWriter: w, status: 200}
		start := time.Now()
		next.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), ridKey{}, rid)))
		end := time.Now()
		t.byG.Delete(g)
		name := r.Method + " " + routeClass(r.URL.Path)
		s := span{name: name, rid: rid, start: start, end: end}
		if name == "POST /v1/videos" && cw.status == http.StatusAccepted {
			var j jobView
			if json.Unmarshal(cw.head, &j) == nil {
				s.video = j.Video
			}
		}
		t.add(s)
	})
}

func routeClass(p string) string {
	for _, prefix := range []string{"/v1/videos/", "/v1/jobs/"} {
		if len(p) > len(prefix) && p[:len(prefix)] == prefix {
			return prefix + "*"
		}
	}
	return p
}

// tracedLib is the timing decorator handed to server.New.
type tracedLib struct {
	*classminer.Library
	t *tracer
}

var _ server.Library = (*tracedLib)(nil)

func (l *tracedLib) record(name string, rid uint64, video string, start time.Time) {
	l.t.add(span{name: name, rid: rid, video: video, start: start, end: time.Now()})
}

func (l *tracedLib) SearchIntoCtx(ctx context.Context, dst []classminer.SearchHit, u classminer.User, q []float64, k int) ([]classminer.SearchHit, classminer.SearchStats, error) {
	start := time.Now()
	h, s, err := l.Library.SearchIntoCtx(ctx, dst, u, q, k)
	l.record("lib.search", l.t.ridOf(ctx), "", start)
	return h, s, err
}

func (l *tracedLib) SearchBatch(u classminer.User, qs [][]float64, k int) ([][]classminer.SearchHit, []classminer.SearchStats, error) {
	start := time.Now()
	h, s, err := l.Library.SearchBatch(u, qs, k)
	l.record("lib.search_batch", l.t.ridOf(nil), "", start)
	return h, s, err
}

func (l *tracedLib) AddResultCtx(ctx context.Context, res *classminer.Result, sub string) error {
	start := time.Now()
	err := l.Library.AddResultCtx(ctx, res, sub)
	l.record("lib.add_result", 0, res.Video.Name, start)
	return err
}

func (l *tracedLib) AddVideoCtx(ctx context.Context, v *classminer.Video, sub string) (*classminer.Result, error) {
	start := time.Now()
	res, err := l.Library.AddVideoCtx(ctx, v, sub)
	l.record("lib.add_video", 0, v.Name, start)
	return res, err
}

func (l *tracedLib) ReplaceResultAsCtx(ctx context.Context, u classminer.User, res *classminer.Result, sub string) error {
	start := time.Now()
	err := l.Library.ReplaceResultAsCtx(ctx, u, res, sub)
	l.record("lib.replace", 0, res.Video.Name, start)
	return err
}

func (l *tracedLib) ReplaceVideoAsCtx(ctx context.Context, u classminer.User, v *classminer.Video, sub string) (*classminer.Result, error) {
	start := time.Now()
	res, err := l.Library.ReplaceVideoAsCtx(ctx, u, v, sub)
	l.record("lib.replace", 0, v.Name, start)
	return res, err
}

func (l *tracedLib) DeleteVideoAsCtx(ctx context.Context, u classminer.User, name string) error {
	start := time.Now()
	err := l.Library.DeleteVideoAsCtx(ctx, u, name)
	l.record("lib.delete", l.t.ridOf(ctx), name, start)
	return err
}

func (l *tracedLib) BuildIndexCtx(ctx context.Context) error {
	start := time.Now()
	err := l.Library.BuildIndexCtx(ctx)
	l.record("lib.build_index", 0, "", start)
	return err
}

// startTraced recovers a pristine copy of the fixture in-process and
// serves it through server.New behind the decorator and middleware.
// setup_s is recover → index → listening → first search answered.
func (w *world) startTraced(probe []byte) (*tracedTarget, error) {
	dir := filepath.Join(w.env.work, "traced")
	if err := copyTree(w.pristine, dir); err != nil {
		return nil, err
	}
	w.liveDir = dir
	start := time.Now()
	a, err := classminer.NewAnalyzer(classminer.Options{})
	if err != nil {
		return nil, err
	}
	// Like the daemon, the in-process server logs every request and job.
	logf, err := os.Create(filepath.Join(w.env.work, "traced.log"))
	if err != nil {
		return nil, err
	}
	logger := log.New(logf, "classminerd: ", log.LstdFlags)
	reg := metrics.NewRegistry()
	rstart := time.Now()
	lib, err := classminer.Recover(dir, a, classminer.DurableOptions{Sync: classminer.SyncAlways, Metrics: reg, Logf: logger.Printf})
	if err != nil {
		return nil, err
	}
	w.putLayer("classminer.recover_s", time.Since(rstart).Seconds(), "s")
	if lib.Size() > 0 && lib.IndexStale() {
		if err := lib.BuildIndex(); err != nil {
			lib.Close()
			return nil, err
		}
	}
	w.tr = &tracer{}
	opts := defaultServerOptions()
	opts.Metrics = reg
	opts.Logf = logger.Printf
	srv := server.New(&tracedLib{Library: lib, t: w.tr}, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		lib.Close()
		return nil, err
	}
	hs := &http.Server{Handler: w.tr.middleware(srv)}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()
	c := newClient(url)
	defer c.close()
	if _, err := c.do("POST", "/v1/search", probe); err != nil {
		hs.Close()
		srv.Close()
		lib.Close()
		return nil, err
	}
	w.put("setup_s", time.Since(start).Seconds(), "s")
	var once sync.Once
	stop := func() {
		once.Do(func() {
			hs.Close()
			srv.Close()
			lib.Close()
			logf.Close()
		})
	}
	return &tracedTarget{url: url, stop: stop, rss: selfPeakRSSMB}, nil
}

type tracedTarget struct {
	url  string
	stop func()
	rss  func() float64
}

// selfPeakRSSMB is this process's VmHWM: in a traced run the server and
// the load generator share it.
func selfPeakRSSMB() float64 { return procStatusMB("/proc/self/status", "VmHWM") }

// spanStats reduces the traced run's spans to per-layer metrics.
func (w *world) spanStats() {
	t := w.tr
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	childTime := map[uint64]time.Duration{}
	byName := map[string][]float64{} // ms
	calls := map[string][]span{}     // decorator spans by video
	for _, s := range t.spans {
		byName[s.name] = append(byName[s.name], ms(s.dur()))
		if s.rid != 0 && s.name[:4] == "lib." {
			childTime[s.rid] += s.dur()
		}
		if s.video != "" && s.name[:4] == "lib." {
			calls[s.video] = append(calls[s.video], s)
		}
	}
	var searchSelf, batchSelf, queueWait []float64
	for _, s := range t.spans {
		switch s.name {
		case "POST /v1/search":
			searchSelf = append(searchSelf, 1000*ms(s.dur()-childTime[s.rid]))
		case "POST /v1/search/batch":
			batchSelf = append(batchSelf, 1000*ms(s.dur()-childTime[s.rid]))
		case "POST /v1/videos":
			// POST → the first decorator call for that video after it.
			for _, c := range calls[s.video] {
				if !c.start.Before(s.start) {
					queueWait = append(queueWait, ms(c.start.Sub(s.start)))
					break
				}
			}
		}
	}
	var ingestSelf []float64
	for _, j := range t.jobs {
		if j.Started.IsZero() || j.Finished.IsZero() {
			continue
		}
		for _, c := range calls[j.Video] {
			if !c.start.Before(j.Started) && !c.end.After(j.Finished.Add(time.Millisecond)) {
				ingestSelf = append(ingestSelf, ms(j.Finished.Sub(j.Started)-c.dur()))
				break
			}
		}
	}
	w.putLayer("server.search.self_us.p50", quantile(searchSelf, 0.5), "us")
	w.putLayer("server.batch.self_us.p50", quantile(batchSelf, 0.5), "us")
	w.putLayer("server.ingest.queue_wait_ms.p50", quantile(queueWait, 0.5), "ms")
	w.putLayer("server.ingest.self_ms.p50", quantile(ingestSelf, 0.5), "ms")
	var rebuild float64
	for _, x := range byName["lib.build_index"] {
		rebuild += x
	}
	w.putLayer("server.rebuild_ms.sum", rebuild, "ms")
	w.putLayer("classminer.search_us.p50", 1000*quantile(byName["lib.search"], 0.5), "us")
	w.putLayer("classminer.search_us.p99", 1000*quantile(byName["lib.search"], 0.99), "us")
	w.putLayer("classminer.search_batch_ms.p50", quantile(byName["lib.search_batch"], 0.5), "ms")
	w.putLayer("classminer.add_result_ms.p50", quantile(byName["lib.add_result"], 0.5), "ms")
	w.putLayer("classminer.add_result_ms.p99", quantile(byName["lib.add_result"], 0.99), "ms")
	w.putLayer("classminer.replace_ms.p50", quantile(byName["lib.replace"], 0.5), "ms")
	w.putLayer("classminer.delete_ms.p50", quantile(byName["lib.delete"], 0.5), "ms")
	w.putLayer("classminer.add_video_s.p50", quantile(byName["lib.add_video"], 0.5)/1000, "s")
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# span %-24s n=%-6d p50=%.4gms\n", n, len(byName[n]), quantile(byName[n], 0.5))
	}
}
