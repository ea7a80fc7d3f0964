package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// search workload: read-only open-loop traffic against a durable daemon
// recovered from a large library. The server, classminer search and index
// layers do nearly all the work; mining and the WAL sit idle.
const (
	searchVideos   = 400 // library size (~38k shots)
	searchNominal  = 150 // req/s during the warm-up and nominal phases
	searchWarmup   = 3 * time.Second
	searchLimitMs  = 25.0 // p99 latency limit of the rate sweep
	searchK        = 10
	batchItems     = 16
	searchBoots    = 3
	zipfExponent   = 1.0
	sweepStartRate = 100.0
	sweepFine      = 1.08 // successive swept rates are 8% apart
)

// queryMaker draws the search workload's queries.
type queryMaker struct {
	shots []shotRef
	rank  []int // Zipf rank → shot index
	z     *zipf
	rng   *rand.Rand
	check [][]byte // recovery-comparison queries, drawn once
}

func newQueryMaker(shots []shotRef, rng *rand.Rand) *queryMaker {
	return &queryMaker{shots: shots, rank: rng.Perm(len(shots)), z: newZipf(len(shots), zipfExponent), rng: rng}
}

// example is a by-example query on a Zipf-drawn shot: the head fits the
// 256-entry cache, the tail does not.
func (q *queryMaker) example() searchReq {
	s := q.shots[q.rank[q.z.draw(q.rng)]]
	return searchReq{Video: s.video, Shot: s.shot, K: searchK}
}

// raw is a never-repeating raw-vector query, so it bypasses the cache.
func (q *queryMaker) raw() searchReq {
	s := q.shots[q.rng.Intn(len(q.shots))]
	return searchReq{Query: jitterQuery(s.feat, q.rng), K: searchK}
}

// searchOp builds one search op of class with its checks.
func (w *world) searchOp(rec *recorder, class string, req searchReq, keepLimit int) *op {
	body, _ := json.Marshal(req)
	o := &op{method: "POST", path: "/v1/search", body: body}
	part := "search-raw"
	if req.Video != "" {
		part = "search-example"
	}
	o.then = func(r result) {
		if r.err != nil || r.status != 200 {
			rec.fail(class)
			rec.sample(part, failLatencyMs*time.Millisecond)
			return
		}
		rec.ok(class, r.end.Sub(o.due))
		rec.sample(part, r.end.Sub(o.due))
		w.later(func() {
			if req.Video != "" {
				w.checkExample(req, r.body)
			}
			w.keep(body, r.body, keepLimit)
		})
	}
	return o
}

func (w *world) batchOp(rec *recorder, q *queryMaker) *op {
	items := make([]searchReq, batchItems)
	for i := range items {
		if i%2 == 0 {
			items[i] = q.example()
		} else {
			items[i] = q.raw()
		}
		items[i].K = 0
	}
	body, _ := json.Marshal(map[string]any{"items": items, "k": searchK})
	o := &op{method: "POST", path: "/v1/search/batch", body: body}
	o.then = func(r result) {
		if r.err != nil || r.status != 200 {
			rec.fail("batch")
			return
		}
		rec.ok("batch", r.end.Sub(o.due))
		w.later(func() { w.checkBatch(items, r.body) })
	}
	return o
}

// checkBatch checks a batch answer item by item.
func (w *world) checkBatch(items []searchReq, body []byte) {
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if json.Unmarshal(body, &resp) != nil || len(resp.Results) != batchItems {
		w.problem("batch answer has %d results, want %d", len(resp.Results), batchItems)
		return
	}
	for i, it := range items {
		if it.Video != "" {
			it.K = searchK
			w.checkExample(it, resp.Results[i])
		}
	}
}

// runOpen drives an open-loop fixed-rate schedule for dur and waits for it
// to drain; mk builds op i.
func runOpen(g *gen, rate float64, dur time.Duration, mk func(i int) *op) {
	n := int(rate * dur.Seconds())
	t0 := time.Now().Add(20 * time.Millisecond)
	g.feed(n, func(i int) time.Time {
		return t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}, func(i int, _ time.Time) *op { return mk(i) })
	g.drain(30 * time.Second)
}

// searchMix is the nominal mix: 60% by-example, 30% raw, 10% batch.
func (w *world) searchMix(rec *recorder, q *queryMaker, keepLimit int) func(i int) *op {
	return func(i int) *op {
		switch u := q.rng.Float64(); {
		case u < 0.6:
			return w.searchOp(rec, "search", q.example(), keepLimit)
		case u < 0.9:
			return w.searchOp(rec, "search", q.raw(), keepLimit)
		default:
			return w.batchOp(rec, q)
		}
	}
}

// sweep raises the search rate until a step misses the p99 limit (or
// fails an op) and returns the highest rate that met it. Rates lie on a
// fixed grid: doubling from sweepStartRate, then 8% steps from the last
// passing doubling. Every step drains before the next starts.
func (w *world) sweep(url string, q *queryMaker, budget time.Duration) float64 {
	deadline := time.Now().Add(budget)
	step := func(rate float64, dur time.Duration) bool {
		rec := newRecorder()
		g := newGen(url, rec)
		defer g.close()
		runOpen(g, rate, dur, func(i int) *op {
			req := q.example()
			if i%3 == 2 {
				req = q.raw()
			}
			body, _ := json.Marshal(req)
			o := &op{method: "POST", path: "/v1/search", body: body}
			o.then = func(r result) {
				if r.err != nil || r.status != 200 {
					rec.fail("search")
					return
				}
				rec.ok("search", r.end.Sub(o.due))
			}
			return o
		})
		_, failed := rec.totals()
		return failed == 0 && rec.quantile("search", 0.99) <= searchLimitMs
	}
	best := 0.0
	rate := sweepStartRate
	for time.Now().Before(deadline) && step(rate, 500*time.Millisecond) {
		best = rate
		rate *= 2
	}
	if best == 0 {
		return 0
	}
	for rate = best * sweepFine; rate < 2*best && time.Now().Before(deadline); rate *= sweepFine {
		if !step(rate, time.Second) {
			break
		}
		best = rate
	}
	return math.Round(best*10) / 10
}

// putSearchLatency reports the search latency of the measured phase: the
// gated search_p50_ms over every single search, its p99, and the p50 of
// its by-example and raw-vector parts apart, so that a change on one path
// shows even where the traffic mix dilutes it in the blend.
func (w *world) putSearchLatency() {
	w.put("search_p50_ms", w.rec.windowedQuantile("search", 0.5), "ms")
	w.put("search_p99_ms", w.rec.windowedQuantile("search", 0.99), "ms")
	w.put("search_example_p50_ms", w.rec.windowedQuantile("search-example", 0.5), "ms")
	w.put("search_raw_p50_ms", w.rec.windowedQuantile("search-raw", 0.5), "ms")
}

func (w *world) runSearch() error {
	if err := w.buildFixture(searchVideos, fmt.Sprintf("s%d", w.seed)); err != nil {
		return err
	}
	q := newQueryMaker(w.shots(w.lib), w.rng)
	probe, _ := json.Marshal(searchReq{Video: w.lib[0].VideoName, Shot: 0, K: searchK})
	url, stop, rss, err := w.target(searchBoots, probe)
	if err != nil {
		return err
	}
	defer stop()
	// Warm-up at the nominal rate fills the cache and lets the recovered
	// daemon settle; it is not measured.
	warm := newRecorder()
	g := newGen(url, warm)
	runOpen(g, searchNominal, searchWarmup, w.searchMix(warm, q, 0))
	g.close()
	w.warmedUp(warm)
	before, err := w.begin(newClient(url))
	if err != nil {
		return err
	}
	nominal := time.Duration(w.seconds * 2 / 3 * float64(time.Second))
	g = newGen(url, w.rec)
	runOpen(g, searchNominal, nominal, w.searchMix(w.rec, q, 64))
	g.close()
	after, err := w.finish(newClient(url))
	if err != nil {
		return err
	}
	w.logf("nominal phase done")
	maxRPS := w.sweep(url, q, time.Duration(w.seconds*float64(time.Second))-nominal)
	w.put("rss_mb", rss(), "MB")
	w.putSearchLatency()
	w.put("batch_p50_ms", w.rec.quantile("batch", 0.5), "ms")
	w.put("search_max_rps", maxRPS, "req/s")
	w.serverCounts(before, after)
	w.recall()
	stop()
	w.compareWithRecovery(w.pristine)
	return nil
}
