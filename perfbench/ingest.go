package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"classminer/internal/synth"
)

// ingest-raw workload: a closed loop keeps two corpus ingests in flight
// (matching the daemon's -workers 2) on a small library while a low-rate
// open-loop search runs beside them. Mining (synth + the core stages)
// dominates; the index and WAL are lightly used.
const (
	rawVideos    = 50
	rawScale     = 0.25 // corpus scale of every raw ingest
	rawInFlight  = 2
	rawSearchRPS = 70
	rawBoots     = 3
	// rawPoll is how often an in-flight raw ingest is polled: the timing
	// resolution of raw_ingest_done_p50_s. A scale-0.25 ingest takes about
	// a second, so 50 ms keeps the polls to a few per second beside the
	// 70 req/s of search, on the same two connections.
	rawPoll = 50 * time.Millisecond
)

// rawIngest names one corpus ingest of the closed loop.
type rawIngest struct {
	name   string
	corpus string
	seed   int64
}

// rawSequence is the seeded order of (corpus, seed) ingests; corpora rotate
// so every run mines the same mix of scripts.
func rawSequence(seed int64, n int) []rawIngest {
	names := synth.CorpusNames()
	out := make([]rawIngest, n)
	for i := range out {
		out[i] = rawIngest{
			name:   fmt.Sprintf("raw%d-%s-%03d", seed, names[i%len(names)], i),
			corpus: names[i%len(names)],
			seed:   seed*1000 + int64(i) + 1,
		}
	}
	return out
}

// jobOp submits an ingest body, then polls its job every interval until
// it settles; done receives the settled job (nil on failure) and when it
// was observed. Polls are counted on the generator's recorder.
func jobOp(g *gen, body []byte, every time.Duration, done func(j *jobView, at time.Time)) *op {
	o := &op{method: "POST", path: "/v1/videos", body: body}
	var poll func(r result)
	poll = func(r result) {
		var j jobView
		if r.err != nil || r.status/100 != 2 || json.Unmarshal(r.body, &j) != nil {
			done(nil, r.end)
			return
		}
		switch j.Status {
		case "done":
			done(&j, r.end)
		case "failed":
			done(nil, r.end)
		default:
			g.rec.poll()
			g.push(&op{due: r.end.Add(every), method: "GET", path: "/v1/jobs/" + j.ID, then: poll})
		}
	}
	o.then = poll
	return o
}

func (w *world) runIngestRaw() error {
	if err := w.buildFixture(rawVideos, fmt.Sprintf("r%d", w.seed)); err != nil {
		return err
	}
	q := newQueryMaker(w.shots(w.lib), w.rng)
	probe, _ := json.Marshal(searchReq{Video: w.lib[0].VideoName, Shot: 0, K: searchK})
	url, stop, rss, err := w.target(rawBoots, probe)
	if err != nil {
		return err
	}
	defer stop()
	w.warmup(url, q, rawSearchRPS)
	c := newClient(url)
	before, err := w.begin(c)
	if err != nil {
		return err
	}

	dur := time.Duration(w.seconds * float64(time.Second))
	seq := rawSequence(w.seed, 1000)
	g := newGen(url, w.rec)
	var mu sync.Mutex
	next, completed := 0, 0
	var doneTimes []time.Time
	var ingested []string
	t0 := time.Now()
	end := t0.Add(dur)
	var submit func()
	submit = func() {
		mu.Lock()
		if time.Now().After(end) {
			mu.Unlock()
			return
		}
		in := seq[next]
		next++
		mu.Unlock()
		body, _ := json.Marshal(map[string]any{
			"subcluster": subcluster, "corpus": in.corpus, "seed": in.seed,
			"scale": rawScale, "name": in.name,
		})
		sent := time.Now()
		o := jobOp(g, body, rawPoll, func(j *jobView, at time.Time) {
			if j == nil {
				w.rec.fail("raw-ingest")
				w.problem("raw ingest %s did not end done", in.name)
			} else {
				w.rec.ok("raw-ingest", at.Sub(sent))
				if w.tr != nil {
					w.tr.noteJob(j)
				}
				mu.Lock()
				completed++
				doneTimes = append(doneTimes, at)
				ingested = append(ingested, in.name)
				mu.Unlock()
			}
			submit() // closed loop: the slot's next ingest goes out at once
		})
		o.due = sent
		g.push(o)
	}
	for i := 0; i < rawInFlight; i++ {
		submit()
	}
	runOpen(g, rawSearchRPS, dur, w.lightSearch(w.rec, q))
	if !g.drain(150 * time.Second) {
		g.close()
		return fmt.Errorf("raw ingests still running 150s after the window")
	}
	g.close()
	after, err := w.finish(c)
	if err != nil {
		return err
	}

	w.logf("ingest window drained")
	sort.Slice(doneTimes, func(i, j int) bool { return doneTimes[i].Before(doneTimes[j]) })
	if completed > 0 {
		span := doneTimes[len(doneTimes)-1].Sub(t0).Minutes()
		w.put("raw_ingest_vpm", float64(completed)/span, "videos/min")
	}
	w.put("raw_ingest_done_p50_s", w.rec.quantile("raw-ingest", 0.5)/1000, "s")
	w.putSearchLatency()
	w.put("rss_mb", rss(), "MB")
	w.serverCounts(before, after)
	w.recall()

	// Every acked ingest must be listed, then survive a crash: the daemon
	// is killed and its directory recovered in-process, where sampled
	// answers must come back byte-identical.
	names, err := videoNames(c)
	if err != nil {
		return err
	}
	w.requirePresent(names, ingested, nil)
	c.close()
	return w.crashCheck(stop, q, ingested, nil)
}

// lightSearch is the background search mix of ingest-raw and write-mix:
// two by-example queries to one raw-vector query.
func (w *world) lightSearch(rec *recorder, q *queryMaker) func(i int) *op {
	return func(i int) *op {
		if i%3 == 2 {
			return w.searchOp(rec, "search", q.raw(), 32)
		}
		return w.searchOp(rec, "search", q.example(), 32)
	}
}

// warmup runs two unmeasured seconds of background search so a freshly
// recovered server settles before the measured window.
func (w *world) warmup(url string, q *queryMaker, rate float64) {
	rec := newRecorder()
	g := newGen(url, rec)
	runOpen(g, rate, 2*time.Second, w.lightSearch(rec, q))
	g.close()
	w.warmedUp(rec)
}

// checkQueries is the fixed query set the recovery comparisons ask: the
// first 24 queries of a fresh draw from q's seed.
func checkQueries(q *queryMaker) [][]byte {
	if q.check == nil {
		for i := 0; i < 24; i++ {
			req := q.example()
			if i%2 == 1 {
				req = q.raw()
			}
			body, _ := json.Marshal(req)
			q.check = append(q.check, body)
		}
	}
	return q.check
}

// requirePresent checks a video listing against the acked writes.
func (w *world) requirePresent(names, present, absent []string) {
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, n := range present {
		if !have[n] {
			w.problem("acked video %s missing", n)
		}
	}
	for _, n := range absent {
		if have[n] {
			w.problem("deleted video %s still listed", n)
		}
	}
}

// target boots the system under test: the daemon (boots times, setup_s
// the median), or in a traced run the in-process server.
func (w *world) target(boots int, probe []byte) (url string, stop func(), rss func() float64, err error) {
	if w.traced {
		t, err := w.startTraced(probe)
		if err != nil {
			return "", nil, nil, err
		}
		return t.url, t.stop, t.rss, nil
	}
	d, dir, err := w.setupDaemon(boots, probe)
	if err != nil {
		return "", nil, nil, err
	}
	w.liveDir = dir
	rss = func() float64 { return w.bootPeakMB + max(0, d.statusMB("VmHWM")-w.maxBootPeakMB) }
	return d.url, d.kill, rss, nil
}

// crashCheck asks the quiesced server a fixed set of queries, stops it
// (SIGKILL for the daemon), recovers its data directory in-process and
// requires byte-identical answers to a freshly booted daemon on a copy of
// the same directory. Incremental index inserts keep the live index's
// routing spaces from its last full fit, so the comparison is between two
// fresh recoveries, never against the live index.
func (w *world) crashCheck(stop func(), q *queryMaker, present, absent []string) error {
	stop()
	if w.traced {
		return nil
	}
	dir := w.liveDir
	boot := filepath.Join(w.env.work, "reboot")
	if err := copyTree(dir, boot); err != nil {
		return err
	}
	d, err := startDaemon(w.env, boot, nil)
	if err != nil {
		return err
	}
	defer os.RemoveAll(boot)
	defer d.kill()
	if err := d.waitReady(120 * time.Second); err != nil {
		return err
	}
	c := newClient(d.url)
	defer c.close()
	names, err := videoNames(c)
	if err != nil {
		return err
	}
	w.requirePresent(names, present, absent)
	w.samples = w.samples[:0]
	for i, body := range checkQueries(q) {
		ans, err := c.do("POST", "/v1/search", body)
		if err != nil {
			return err
		}
		w.samples = append(w.samples, sample{body, ans})
		if i < len(w.followerAnswers) && answerKey(w.followerAnswers[i]) != answerKey(ans) {
			w.problem("follower answer to %.80s differs from the recovered leader's", body)
		}
	}
	d.kill()
	w.compareWithRecovery(dir)
	return nil
}
