package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"classminer"
	"classminer/internal/server"
	"classminer/internal/store"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// world is one run: its seed, inputs and everything it reports.
type world struct {
	env     *env
	seed    int64
	seconds float64
	rng     *rand.Rand
	traced  bool

	lib      []*store.SavedResult // the fanned-out library the fixture holds
	facts    fixtureFacts
	pristine string // prepared data dir, never written after preparation
	liveDir  string // data dir of the measured daemon

	e2e   map[string]metric
	layer map[string]metric
	rec   *recorder

	mu       sync.Mutex
	problems []string // failed output checks
	samples  []sample // daemon answers to re-check against an in-process recovery
	pending  []func() // answer checks deferred until the measured phase ends

	tr *tracer // traced run only

	// rss_mb: a recovery's peak RSS lands in one of two modes, by where
	// its collections fall, so the set-up part is the mean over the boots
	// (a median of three would flip between the modes), and the measured
	// daemon adds only how far it rose above every set-up peak.
	bootPeakMB, maxBootPeakMB float64

	followerAnswers [][]byte // write-mix: the follower's answers to checkQueries

	examples, exampleHits int // by-example answers checked / containing the example
}

func newWorld(e *env, seed int64, seconds float64, traced bool) *world {
	return &world{
		env: e, seed: seed, seconds: seconds, traced: traced,
		rng: rand.New(rand.NewSource(seed)),
		e2e: map[string]metric{}, layer: map[string]metric{},
		rec: newRecorder(),
	}
}

// logf notes run progress on stderr, stamped with the time since the run
// began.
func (w *world) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "# %6.1fs %s\n", time.Since(w.env.start).Seconds(), fmt.Sprintf(format, args...))
}

func (w *world) problem(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.problems) < 20 {
		w.problems = append(w.problems, fmt.Sprintf(format, args...))
	}
}

func (w *world) put(name string, v float64, unit string) { w.e2e[name] = metric{v, unit} }
func (w *world) putLayer(name string, v float64, unit string) {
	w.layer[name] = metric{v, unit}
}

// buildFixture mines (or loads) the base set, fans it out to n videos and
// prepares the pristine data directory through the daemon under test.
func (w *world) buildFixture(n int, prefix string) error {
	base, err := mineBase(w.env.cache)
	if err != nil {
		return err
	}
	w.lib = fanOut(base, n, prefix, w.rng)
	payloads := make([][]byte, n)
	for i, v := range w.lib {
		if payloads[i], err = json.Marshal(v); err != nil {
			return err
		}
	}
	w.facts = describe(w.lib, payloads)
	w.pristine = filepath.Join(w.env.work, "pristine")
	if w.traced {
		// The untraced run of the same seed prepared this very library.
		return nil
	}
	os.RemoveAll(w.pristine)
	w.logf("fanned out %d videos; preparing the data dir", n)
	err = prepareDataDir(w.env, w.pristine, w.lib)
	w.logf("data dir prepared")
	return err
}

// shotRef names one library shot.
type shotRef struct {
	video string
	shot  int
	feat  store.SavedShot
}

func (w *world) shots(videos []*store.SavedResult) []shotRef {
	var out []shotRef
	for _, v := range videos {
		for _, s := range v.Shots {
			out = append(out, shotRef{v.VideoName, s.Index, s})
		}
	}
	return out
}

// searchReq is the body of POST /v1/search (and one batch item).
type searchReq struct {
	Query []float64 `json:"query,omitempty"`
	Video string    `json:"video,omitempty"`
	Shot  int       `json:"shot,omitempty"`
	K     int       `json:"k,omitempty"`
}

// searchResp is the part of a search answer the checks read.
type searchResp struct {
	Hits []struct {
		Video string  `json:"video"`
		Shot  int     `json:"shot"`
		Dist  float64 `json:"dist"`
	} `json:"hits"`
}

// checkExample checks a by-example answer. The hierarchical index is
// beam-approximate (the paper's Eq. 25 search descends Beam=2 children per
// level), so on a large library the example's own leaf is sometimes not
// visited and the example is absent from its answer; that is counted as a
// recall miss, not a failure. What must hold: hits are ranked by ascending
// distance, and a returned example sits at distance 0 ahead of every
// nonzero-distance hit.
func (w *world) checkExample(req searchReq, body []byte) {
	var r searchResp
	if err := json.Unmarshal(body, &r); err != nil {
		w.problem("search %s/%d: %v", req.Video, req.Shot, err)
		return
	}
	if len(r.Hits) == 0 {
		w.problem("search %s/%d: no hits", req.Video, req.Shot)
		return
	}
	found := false
	for i, h := range r.Hits {
		if i > 0 && h.Dist < r.Hits[i-1].Dist {
			w.problem("search %s/%d: hits not ranked by distance", req.Video, req.Shot)
			return
		}
		if h.Video == req.Video && h.Shot == req.Shot {
			if h.Dist != 0 || r.Hits[0].Dist != 0 {
				w.problem("search %s/%d: example returned at distance %g behind %g", req.Video, req.Shot, h.Dist, r.Hits[0].Dist)
				return
			}
			found = true
		}
	}
	w.mu.Lock()
	w.examples++
	if found {
		w.exampleHits++
	}
	w.mu.Unlock()
}

// sample is one daemon answer kept for re-checking.
type sample struct {
	req  []byte
	body []byte
}

// answerKey is the deterministic part of a search answer: everything but
// the cached flag, which only says which path served it.
func answerKey(body []byte) string {
	var m map[string]json.RawMessage
	if json.Unmarshal(body, &m) != nil {
		return string(body)
	}
	delete(m, "cached")
	b, _ := json.Marshal(m)
	return string(b)
}

// keep records an answer for the recovery comparison, up to limit samples.
func (w *world) keep(req, body []byte, limit int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.samples) < limit {
		w.samples = append(w.samples, sample{req, body})
	}
}

// warmedUp fails the run if a warm-up op failed: warm-up ops are not
// timed, but they must succeed like any other.
func (w *world) warmedUp(rec *recorder) {
	if attempted, failed := rec.totals(); failed > 0 {
		w.problem("%d of %d warm-up ops failed", failed, attempted)
	}
}

// later defers an answer check so the generator spends the measured
// phase sending requests, not decoding answers.
func (w *world) later(check func()) {
	w.mu.Lock()
	w.pending = append(w.pending, check)
	w.mu.Unlock()
}

// settle runs the deferred checks in the order their answers arrived.
func (w *world) settle() {
	w.mu.Lock()
	pending := w.pending
	w.pending = nil
	w.mu.Unlock()
	for _, check := range pending {
		check()
	}
}

// recoverInProcess opens dir with classminer.Recover, builds its index and
// serves it through server.New with the daemon's default options.
func recoverInProcess(dir string) (*classminer.Library, *server.Server, error) {
	a, err := classminer.NewAnalyzer(classminer.Options{})
	if err != nil {
		return nil, nil, err
	}
	lib, err := classminer.Recover(dir, a, classminer.DurableOptions{Sync: classminer.SyncAlways})
	if err != nil {
		return nil, nil, err
	}
	if lib.Size() > 0 && lib.IndexStale() {
		if err := lib.BuildIndex(); err != nil {
			lib.Close()
			return nil, nil, err
		}
	}
	return lib, server.New(lib, defaultServerOptions()), nil
}

// compareWithRecovery replays every kept sample against an in-process
// recovery of dir and requires byte-identical answers.
func (w *world) compareWithRecovery(dir string) {
	copyDir := dir + "-check"
	if err := copyTree(dir, copyDir); err != nil {
		w.problem("copying %s: %v", dir, err)
		return
	}
	defer os.RemoveAll(copyDir)
	lib, srv, err := recoverInProcess(copyDir)
	if err != nil {
		w.problem("in-process recovery: %v", err)
		return
	}
	defer func() { srv.Close(); lib.Close() }()
	for _, s := range w.samples {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/v1/search", strings.NewReader(string(s.req)))
		req.Header.Set("Authorization", "Bearer "+token)
		srv.ServeHTTP(rr, req)
		if answerKey(rr.Body.Bytes()) != answerKey(s.body) {
			w.problem("answer to %.80s differs from in-process recovery", s.req)
			return
		}
	}
}

// videoNames lists the videos a server reports.
func videoNames(c *client) ([]string, error) {
	b, err := c.do("GET", "/v1/videos", nil)
	if err != nil {
		return nil, err
	}
	var r struct {
		Videos []struct {
			Name string `json:"name"`
		} `json:"videos"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	out := make([]string, len(r.Videos))
	for i, v := range r.Videos {
		out[i] = v.Name
	}
	sort.Strings(out)
	return out, nil
}

// setupDaemon boots classminerd on a pristine copy of the fixture `boots`
// times and reports setup_s as the median of exec → /readyz ready and the
// first search answered; the boots' peak RSS is kept for rss_mb. The last daemon is kept running and returned.
func (w *world) setupDaemon(boots int, probe []byte) (*daemon, string, error) {
	var times, peaks []float64
	var d *daemon
	dir := filepath.Join(w.env.work, "run")
	for i := 0; i < boots; i++ {
		d.kill()
		if err := copyTree(w.pristine, dir); err != nil {
			return nil, "", err
		}
		var err error
		if d, err = startDaemon(w.env, dir, nil); err != nil {
			return nil, "", err
		}
		if err := d.waitReady(120 * time.Second); err != nil {
			d.kill()
			return nil, "", err
		}
		c := newClient(d.url)
		if _, err := c.do("POST", "/v1/search", probe); err != nil {
			d.kill()
			return nil, "", fmt.Errorf("first search: %w", err)
		}
		times = append(times, time.Since(d.started).Seconds())
		peaks = append(peaks, d.statusMB("VmHWM"))
		c.close()
	}
	w.put("setup_s", median(times), "s")
	w.bootPeakMB, w.maxBootPeakMB = mean(peaks), quantile(peaks, 1)
	w.logf("booted %d times: setup %v s, peak RSS %v MB", boots, times, peaks)
	return d, dir, nil
}

// defaultServerOptions mirrors what classminerd passes to server.New with
// the benchmark's flags (defaults plus the admin token).
func defaultServerOptions() server.Options {
	return server.Options{
		Tokens:          map[string]classminer.User{token: {Name: "bench", Clearance: classminer.Administrator}},
		Anonymous:       &classminer.User{Name: "anonymous", Clearance: classminer.Public},
		CacheSize:       256,
		Workers:         2,
		QueueDepth:      8,
		RebuildBudget:   0.25,
		RebuildDebounce: 250 * time.Millisecond,
		MaxInflight:     256,
		ReqTimeout:      10 * time.Second,
		TraceSlow:       500 * time.Millisecond,
		TraceRing:       256,
	}
}

// begin marks the start of the measured phase with a /metrics scrape.
func (w *world) begin(c *client) (metricSet, error) {
	w.settle()
	if !w.traced {
		// The generator's own collector stays out of the measured window:
		// its live heap (the fixture) is collected now, and the headroom
		// covers the window's allocations.
		runtime.GC()
		debug.SetGCPercent(400)
	}
	return scrape(c)
}

// finish marks the end of the measured phase with a /metrics scrape.
func (w *world) finish(c *client) (metricSet, error) {
	debug.SetGCPercent(100)
	defer w.settle()
	return scrape(c)
}
