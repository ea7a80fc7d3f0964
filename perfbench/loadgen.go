package main

import (
	"container/heap"
	"math"
	"sort"
	"sync"
	"time"
)

// The load generator is one process with at most two connections (the
// box's nproc) and two busy goroutines. Ops sit in one due-time queue; each
// worker owns a connection and takes the earliest due op. Open-loop ops are
// timed from their due time, so a stall charges every op queued behind it
// (no coordinated omission); how late the workers ran is recorded apart.

const workers = 2

// failLatencyMs is the latency charged to a failed or refused op: it misses
// every latency limit the benchmark sets.
const failLatencyMs = 10_000

type result struct {
	status     int
	body       []byte
	err        error
	start, end time.Time
}

type op struct {
	due          time.Time
	method, path string
	body         []byte
	openLoop     bool
	// then runs on the worker after the response arrives.
	then func(r result)
}

type opHeap []*op

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h opHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(*op)) }
func (h *opHeap) Pop() any {
	old := *h
	o := old[len(old)-1]
	*h = old[:len(old)-1]
	return o
}

type gen struct {
	clients []*client
	mu      sync.Mutex
	h       opHeap
	wake    chan struct{}
	quit    bool
	busy    int // ops taken by a worker and not yet finished
	wg      sync.WaitGroup
	rec     *recorder
}

func newGen(url string, rec *recorder) *gen {
	g := &gen{wake: make(chan struct{}, workers), rec: rec}
	for i := 0; i < workers; i++ {
		c := newClient(url)
		g.clients = append(g.clients, c)
		g.wg.Add(1)
		go g.work(c)
	}
	return g
}

// push queues an op.
func (g *gen) push(o *op) {
	g.mu.Lock()
	heap.Push(&g.h, o)
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// idle reports whether no op is queued or running.
func (g *gen) idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.h) == 0 && g.busy == 0
}

// drain waits until every queued op and its follow-ups finished, or limit.
func (g *gen) drain(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if g.idle() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// close stops the workers (dropping anything still queued) and waits.
func (g *gen) close() {
	g.mu.Lock()
	g.quit = true
	g.mu.Unlock()
	for i := 0; i < workers; i++ {
		select {
		case g.wake <- struct{}{}:
		default:
		}
	}
	g.wg.Wait()
	for _, c := range g.clients {
		c.close()
	}
}

func (g *gen) next() *op {
	for {
		g.mu.Lock()
		if g.quit {
			g.mu.Unlock()
			return nil
		}
		wait := 5 * time.Millisecond
		if len(g.h) > 0 {
			if d := time.Until(g.h[0].due); d <= 0 {
				o := heap.Pop(&g.h).(*op)
				g.busy++
				g.mu.Unlock()
				return o
			} else if d < wait {
				wait = d
			}
		}
		g.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-g.wake:
			t.Stop()
		}
	}
}

func (g *gen) work(c *client) {
	defer g.wg.Done()
	for {
		o := g.next()
		if o == nil {
			return
		}
		var r result
		r.start = time.Now()
		if o.openLoop {
			g.rec.late(r.start.Sub(o.due))
		}
		r.status, r.body, r.err = c.call(o.method, o.path, o.body)
		r.end = time.Now()
		if o.then != nil {
			o.then(r)
		}
		g.mu.Lock()
		g.busy--
		g.mu.Unlock()
	}
}

// feed pushes a precomputed open-loop schedule a little ahead of its due
// times, building each op's body off the timed path.
func (g *gen) feed(n int, dueOf func(i int) time.Time, build func(i int, due time.Time) *op) {
	const lead = 50 * time.Millisecond
	for i := 0; i < n; i++ {
		due := dueOf(i)
		if d := time.Until(due) - lead; d > 0 {
			time.Sleep(d)
		}
		o := build(i, due)
		o.due, o.openLoop = due, true
		g.push(o)
	}
}

// recorder collects latencies (ms) per op class, attempts and failures.
type recorder struct {
	mu       sync.Mutex
	lat      map[string][]float64
	at       map[string][]time.Time // when each latency sample's op was due
	attempts map[string]int
	failures map[string]int
	lateMs   []float64
	polls    int // job polls sent (not ops: they time an op, not add one)
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]float64{}, at: map[string][]time.Time{}, attempts: map[string]int{}, failures: map[string]int{}}
}

// poll counts one job poll.
func (r *recorder) poll() {
	r.mu.Lock()
	r.polls++
	r.mu.Unlock()
}

// sample records a latency under class without counting an attempt: the
// by-example and raw-vector parts of an op already counted under "search".
func (r *recorder) sample(class string, d time.Duration) {
	r.mu.Lock()
	r.lat[class] = append(r.lat[class], ms(d))
	r.at[class] = append(r.at[class], time.Now().Add(-d))
	r.mu.Unlock()
}

func (r *recorder) late(d time.Duration) {
	r.mu.Lock()
	r.lateMs = append(r.lateMs, ms(d))
	r.mu.Unlock()
}

// ok records a completed op of class with its latency.
func (r *recorder) ok(class string, d time.Duration) {
	r.mu.Lock()
	r.attempts[class]++
	r.lat[class] = append(r.lat[class], ms(d))
	r.at[class] = append(r.at[class], time.Now().Add(-d))
	r.mu.Unlock()
}

// fail records a failed or refused op; it counts as missing every limit.
func (r *recorder) fail(class string) {
	r.mu.Lock()
	r.attempts[class]++
	r.failures[class]++
	r.lat[class] = append(r.lat[class], failLatencyMs)
	r.at[class] = append(r.at[class], time.Now())
	r.mu.Unlock()
}

func (r *recorder) totals() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.attempts {
		attempted += n
	}
	for _, n := range r.failures {
		failed += n
	}
	return
}

// quantile returns the q-quantile of class's latencies (ms).
func (r *recorder) quantile(class string, q float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return quantile(r.lat[class], q)
}

// windows is how many equal sub-windows of a run the gated latency
// quantiles are taken over; the run reports their median, so one burst of
// background work (a rebuild, a collection) moves one window, not the run.
const windows = 5

// windowedQuantile splits class's samples into windows equal spans of due
// time and returns the median of the per-window q-quantiles.
func (r *recorder) windowedQuantile(class string, q float64) float64 {
	return median(r.windowQuantiles(class, q))
}

// windowQuantiles returns the q-quantile of class's latencies in each of
// windows equal spans of due time (nil when class has no samples).
func (r *recorder) windowQuantiles(class string, q float64) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	at, lat := r.at[class], r.lat[class]
	if len(at) == 0 {
		return nil
	}
	first, last := at[0], at[0]
	for _, t := range at {
		if t.Before(first) {
			first = t
		}
		if t.After(last) {
			last = t
		}
	}
	span := last.Sub(first) + 1
	parts := make([][]float64, windows)
	for i, t := range at {
		k := int(int64(windows) * int64(t.Sub(first)) / int64(span))
		parts[k] = append(parts[k], lat[i])
	}
	qs := make([]float64, windows)
	for k, p := range parts {
		qs[k] = quantile(p, q)
	}
	return qs
}

func (r *recorder) lateQuantile(q float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return quantile(r.lateMs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
