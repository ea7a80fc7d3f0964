package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// write-mix workload: open-loop pre-mined saved ingest, replace:true
// re-ingest and DELETE, balanced so the live set stays near its start,
// with concurrent search. The WAL, store encode/decode and incremental
// index insert/remove dominate; mining is bypassed.
//
// The write rate keeps the index's staleness under the daemon's default
// refit budget (25 %) for the whole mix. At 5 writes/s it crosses the
// budget some 10 s in, the rebuilder then refits again and again while
// deletes race its fits, and search latency flips between two levels with
// where that cycle falls in the 10 s window; the run-to-run spread of
// search_p50_ms then exceeds its bound (see README.md).
const (
	wmVideos    = 200
	wmPool      = 64  // distinct pre-mined contents new videos are drawn from
	wmWriteRate = 3   // writes/s: 40% ingest, 40% delete, 20% replace
	wmSearchRPS = 100 // concurrent search rate
	wmBoots     = 3
	wmWarmup    = 5 * time.Second // unmeasured write mix before the window
	// wmPoll is how often an in-flight saved ingest or replace is polled:
	// the timing resolution of write_ack_*. Those jobs finish in tens of
	// milliseconds, so the interval is finer than ingest-raw's.
	wmPoll = 5 * time.Millisecond
)

// liveModel tracks which mutable videos are acked live, so deletes and
// replaces only ever target a video that exists and has no write in flight.
type liveModel struct {
	mu      sync.Mutex
	live    []string
	deleted map[string]bool
	rng     *rand.Rand
	seq     int
}

// take removes and returns a random idle live video ("" when none).
func (m *liveModel) take() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.live) == 0 {
		return ""
	}
	i := m.rng.Intn(len(m.live))
	name := m.live[i]
	m.live[i] = m.live[len(m.live)-1]
	m.live = m.live[:len(m.live)-1]
	return name
}

func (m *liveModel) settle(name string, alive bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if alive {
		m.live = append(m.live, name)
		delete(m.deleted, name)
	} else {
		m.deleted[name] = true
	}
}

func (m *liveModel) newName(seed int64) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	return fmt.Sprintf("w%d-new-%05d", seed, m.seq)
}

// savedBody splices a name into a pre-encoded saved-ingest request.
func savedBody(name string, replace bool, saved []byte) []byte {
	head, _ := json.Marshal(map[string]any{"subcluster": subcluster, "name": name, "replace": replace})
	out := make([]byte, 0, len(head)+len(saved)+16)
	out = append(out, head[:len(head)-1]...)
	out = append(out, `,"saved":`...)
	out = append(out, saved...)
	return append(out, '}')
}

func (w *world) runWriteMix() error {
	if err := w.buildFixture(wmVideos, fmt.Sprintf("w%d", w.seed)); err != nil {
		return err
	}
	base, err := mineBase(w.env.cache)
	if err != nil {
		return err
	}
	pool := fanOut(base, wmPool, fmt.Sprintf("p%d", w.seed), w.rng)
	poolJSON := make([][]byte, len(pool))
	for i, v := range pool {
		if poolJSON[i], err = json.Marshal(v); err != nil {
			return err
		}
	}
	// The first half of the library is never written, so by-example
	// queries on it cannot race a delete.
	stable := w.lib[:wmVideos/2]
	q := newQueryMaker(w.shots(stable), w.rng)
	model := &liveModel{deleted: map[string]bool{}, rng: rand.New(rand.NewSource(w.seed + 1))}
	for _, v := range w.lib[wmVideos/2:] {
		model.live = append(model.live, v.VideoName)
	}
	probe, _ := json.Marshal(searchReq{Video: stable[0].VideoName, Shot: 0, K: searchK})
	url, stop, rss, err := w.target(wmBoots, probe)
	if err != nil {
		return err
	}
	defer stop()
	// The warm-up runs the whole write and search mix unmeasured, so the
	// measured phase starts inside the steady cycle of incremental inserts
	// and background refits, not from a freshly fitted index.
	var warmBytes, userBytes int64
	warm := newRecorder()
	if err := w.writePhase(url, warm, q, model, poolJSON, wmWarmup, &warmBytes); err != nil {
		return err
	}
	w.warmedUp(warm)
	c := newClient(url)
	defer c.close()
	before, err := w.begin(c)
	if err != nil {
		return err
	}
	if err := w.writePhase(url, w.rec, q, model, poolJSON, time.Duration(w.seconds*float64(time.Second)), &userBytes); err != nil {
		return err
	}
	w.logf("write window drained")
	if _, err := c.do("POST", "/v1/admin/checkpoint", nil); err != nil {
		return err
	}
	after, err := w.finish(c)
	if err != nil {
		return err
	}
	names, err := videoNames(c)
	if err != nil {
		return err
	}
	var present, absent []string
	present = append(present, model.live...)
	for _, v := range stable {
		present = append(present, v.VideoName)
	}
	for n := range model.deleted {
		absent = append(absent, n)
	}
	w.requirePresent(names, present, absent)

	w.put("write_ack_p50_ms", w.rec.quantile("write", 0.5), "ms")
	w.put("write_ack_p99_ms", w.rec.quantile("write", 0.99), "ms")
	w.putSearchLatency()
	w.put("rss_mb", rss(), "MB")
	w.serverCounts(before, after)
	w.recall()
	if userBytes > 0 {
		w.putLayer("wal.bytes_per_user_byte", (after.sum("wal_append_bytes_total")-before.sum("wal_append_bytes_total"))/float64(userBytes), "ratio")
	}
	if w.traced {
		return nil
	}
	w.put("disk_bytes_per_video", float64(dirBytes(w.liveDir))/float64(len(names)), "B")
	if err := w.followerCatchUp(url, c, before, names, q); err != nil {
		return err
	}
	w.logf("follower caught up")
	return w.crashCheck(stop, q, present, absent)
}

// writePhase runs dur of open-loop writes beside open-loop search,
// recording into rec, then waits for every write to settle. userBytes
// accumulates the request bytes of the ingests and replaces.
func (w *world) writePhase(url string, rec *recorder, q *queryMaker, model *liveModel, poolJSON [][]byte, dur time.Duration, userBytes *int64) error {
	g := newGen(url, rec)
	var mu sync.Mutex
	writeOp := func(i int) *op {
		kind := []string{"ingest", "delete", "ingest", "delete", "replace"}[i%5]
		name := ""
		if kind != "ingest" {
			if name = model.take(); name == "" {
				kind = "ingest"
			}
		}
		if kind == "ingest" {
			name = model.newName(w.seed)
		}
		if kind == "delete" {
			o := &op{method: "DELETE", path: "/v1/videos/" + name}
			o.then = func(r result) {
				if r.err != nil || r.status != 200 {
					rec.fail("write")
					w.problem("delete %s: status %d %v", name, r.status, r.err)
					model.settle(name, true)
					return
				}
				rec.ok("write", r.end.Sub(o.due))
				model.settle(name, false)
			}
			return o
		}
		body := savedBody(name, kind == "replace", poolJSON[(i/5*3+i%5)%len(poolJSON)])
		mu.Lock()
		*userBytes += int64(len(body))
		mu.Unlock()
		var o *op
		o = jobOp(g, body, wmPoll, func(j *jobView, at time.Time) {
			if j == nil {
				rec.fail("write")
				w.problem("%s of %s did not end done", kind, name)
				return
			}
			rec.ok("write", at.Sub(o.due))
			if w.tr != nil {
				w.tr.noteJob(j)
			}
			model.settle(name, true)
		})
		return o
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Now().Add(20 * time.Millisecond)
		n := int(wmWriteRate * dur.Seconds())
		g.feed(n, func(i int) time.Time {
			return t0.Add(time.Duration(float64(i) / wmWriteRate * float64(time.Second)))
		}, func(i int, _ time.Time) *op { return writeOp(i) })
	}()
	runOpen(g, wmSearchRPS, dur, w.lightSearch(rec, q))
	wg.Wait()
	defer g.close()
	if !g.drain(60 * time.Second) {
		return fmt.Errorf("writes still pending 60s after the window")
	}
	return nil
}

// followerCatchUp boots a fresh follower against the quiesced leader,
// times start → /readyz ready (replication lag 0), and requires the
// follower's video list and sampled answers to match the leader's.
func (w *world) followerCatchUp(leaderURL string, lc *client, leaderBefore metricSet, names []string, q *queryMaker) error {
	dir := filepath.Join(w.env.work, "follower")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	d, err := startDaemon(w.env, dir, []string{"-role", "follower", "-leader-url", leaderURL,
		"-repl-token", token, "-follower-id", "perfbench"})
	if err != nil {
		return err
	}
	defer d.kill()
	if err := d.waitReady(120 * time.Second); err != nil {
		return err
	}
	w.put("repl_catchup_s", time.Since(d.started).Seconds(), "s")
	fc := newClient(d.url)
	defer fc.close()
	leaderAfter, err := scrape(lc)
	if err != nil {
		return err
	}
	fm, err := scrape(fc)
	if err != nil {
		return err
	}
	w.replCounts(leaderBefore, leaderAfter, fm)
	fnames, err := videoNames(fc)
	if err != nil {
		return err
	}
	if fmt.Sprint(fnames) != fmt.Sprint(names) {
		w.problem("follower lists %d videos, leader %d", len(fnames), len(names))
	}
	// The leader's live index carries incremental inserts over its last
	// full fit, so the follower's answers are compared with a fresh
	// recovery of the leader's directory instead (see crashCheck).
	for _, body := range checkQueries(q) {
		b, err := fc.do("POST", "/v1/search", body)
		if err != nil {
			return err
		}
		w.followerAnswers = append(w.followerAnswers, b)
	}
	return nil
}
