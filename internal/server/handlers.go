package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"classminer"
	"classminer/internal/access"
	"classminer/internal/admit"
	"classminer/internal/concept"
	"classminer/internal/metrics"
	"classminer/internal/store"
	"classminer/internal/synth"
	"classminer/internal/trace"
	"classminer/internal/vidmodel"
)

// maxBodyBytes bounds request bodies (a SavedResult for a full-scale video
// is well under this).
const maxBodyBytes = 32 << 20

// subclusterPath is the concept path of a video's placement, the unit at
// which browsing endpoints are gated. It is derived from the library's
// hierarchy so gating always matches the paths policy rules see.
func (s *Server) subclusterPath(subcluster string) []string {
	return s.lib.ConceptPath(subcluster)
}

// lrPool recycles the body-limiting wrapper: the decoder referencing it is
// dead by the time decodeBody returns, so the wrapper can be reused without
// aliasing a live reader.
var lrPool = sync.Pool{New: func() any { return new(io.LimitedReader) }}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	lr := lrPool.Get().(*io.LimitedReader)
	lr.R, lr.N = r.Body, maxBodyBytes
	err := json.NewDecoder(lr).Decode(v)
	lr.R = nil
	lrPool.Put(lr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// --- GET /healthz ----------------------------------------------------------

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// --- GET /readyz -------------------------------------------------------------

// handleReady is the readiness probe, distinct from /healthz liveness:
// /healthz answers "the process is up" and must never fail while the server
// can respond at all, while /readyz answers "route traffic here". A leader
// is ready as soon as it serves (recovery completes before the listener
// opens); a follower is ready only once every shard is seeded and within
// the configured replication-lag threshold. Load balancers and the failover
// runbook key off this endpoint.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{
		"role":    s.role(),
		"durable": s.lib.Durable(),
	}
	ready, reason := true, ""
	if f := s.opts.Follower; f != nil && s.isFollower() {
		ready, reason = f.Ready()
		resp["repl"] = f.Stats()
	}
	resp["ready"] = ready
	if reason != "" {
		resp["reason"] = reason
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// --- GET /v1/stats ---------------------------------------------------------

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	stats := map[string]any{
		"library":   s.lib.Stats(),
		"cache":     s.cache.Stats(),
		"ingest":    s.pool.Stats(s.opts.Workers),
		"index":     s.rebuilder.Stats(),
		"admission": s.admit.Stats(),
		"process":   processInfo(),
		"uptimeSec": time.Since(s.started).Seconds(),
		"requests":  s.requests.Load(),
	}
	if s.tracer != nil {
		// Exemplars point from the aggregate stats back into the trace ring:
		// the last kept trace per route, by id.
		stats["traces"] = map[string]any{
			"stats":     s.tracer.Stats(),
			"exemplars": s.tracer.Exemplars(),
		}
	}
	if s.opts.ReplHub != nil || s.opts.Follower != nil {
		rs := map[string]any{"role": s.role()}
		if h := s.opts.ReplHub; h != nil {
			recs, bts := h.MaxLag()
			rs["followers"] = h.Stats()
			rs["maxLagRecords"] = recs
			rs["maxLagBytes"] = bts
		}
		if f := s.opts.Follower; f != nil && s.isFollower() {
			rs["shards"] = f.Stats()
		}
		stats["repl"] = rs
	}
	writeJSON(w, http.StatusOK, stats)
}

// buildIdentity extracts the VCS stamp once: debug.ReadBuildInfo walks the
// module graph, far too heavy to repeat per stats request.
var buildIdentity = sync.OnceValue(func() map[string]string {
	id := map[string]string{}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return id
	}
	if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		id["version"] = bi.Main.Version
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			id["revision"] = kv.Value
		case "vcs.time":
			id["buildTime"] = kv.Value
		case "vcs.modified":
			id["dirty"] = kv.Value
		}
	}
	return id
})

// processInfo is the process-identity slice of /v1/stats, so the JSON view
// and /metrics agree on what is being observed.
func processInfo() map[string]any {
	return map[string]any{
		"pid":        os.Getpid(),
		"goVersion":  runtime.Version(),
		"goroutines": runtime.NumGoroutine(),
		"build":      buildIdentity(),
	}
}

// --- GET /metrics ------------------------------------------------------------

// handleMetrics serves the Prometheus text exposition. It sits behind
// withAuth like every other endpoint (operational counters reveal workload
// shape), but needs no clearance beyond authentication.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Metrics == nil {
		writeError(w, http.StatusNotFound, "metrics disabled")
		return
	}
	w.Header().Set("Content-Type", metrics.ContentType)
	if err := s.opts.Metrics.WritePrometheus(w); err != nil {
		s.opts.Logf("writing /metrics: %v", err)
	}
}

// --- /debug/pprof/* ----------------------------------------------------------

// handlePprof serves net/http/pprof behind two gates: the -pprof flag
// (disabled deployments 404, indistinguishable from no route) and
// Administrator clearance (profiles expose goroutine stacks and heap
// contents that the API's policy filtering would never release). Dispatch
// uses the raw URL path because pprof.Index parses the profile name from
// everything after "/debug/pprof/" — the router's trailing-slash
// normalisation must not leak into it.
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	if !s.opts.EnablePprof {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no route %s", r.URL.Path))
		return
	}
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	switch strings.TrimSuffix(r.URL.Path, "/") {
	case "/debug/pprof/cmdline":
		pprof.Cmdline(w, r)
	case "/debug/pprof/profile":
		pprof.Profile(w, r)
	case "/debug/pprof/symbol":
		pprof.Symbol(w, r)
	case "/debug/pprof/trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// --- GET /v1/videos --------------------------------------------------------

type videoSummary struct {
	Name        string  `json:"name"`
	Subcluster  string  `json:"subcluster"`
	Shots       int     `json:"shots"`
	Scenes      int     `json:"scenes"`
	DurationSec float64 `json:"durationSec"`
}

func (s *Server) handleListVideos(w http.ResponseWriter, r *http.Request) {
	u := userOf(r)
	videos := []videoSummary{}
	hidden := 0
	for _, name := range s.lib.VideoNames() {
		ve := s.lib.Video(name)
		if ve == nil {
			continue // racing a concurrent removal; skip
		}
		if !s.lib.Allowed(u, s.subclusterPath(ve.Subcluster)) {
			hidden++
			continue
		}
		videos = append(videos, videoSummary{
			Name:        name,
			Subcluster:  ve.Subcluster,
			Shots:       len(ve.Result.Shots),
			Scenes:      len(ve.Result.Scenes),
			DurationSec: durationSec(ve),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"videos": videos, "hidden": hidden})
}

// durationSec derives playback length from the skim's frame count (raw
// frames are not retained for loaded videos).
func durationSec(ve *classminer.VideoEntry) float64 {
	if ve.Result.Skim == nil || ve.Result.Video.FPS <= 0 {
		return 0
	}
	return float64(ve.Result.Skim.TotalFrames) / ve.Result.Video.FPS
}

// --- GET /v1/videos/{name} -------------------------------------------------

type sceneJSON struct {
	Index      int     `json:"index"`
	StartFrame int     `json:"startFrame"`
	EndFrame   int     `json:"endFrame"`
	StartSec   float64 `json:"startSec"`
	EndSec     float64 `json:"endSec"`
	Shots      int     `json:"shots"`
	Groups     int     `json:"groups"`
	Event      string  `json:"event"`
}

type skimLevelJSON struct {
	Level int     `json:"level"`
	Shots int     `json:"shots"`
	FCR   float64 `json:"fcr"`
}

func (s *Server) handleVideoDetail(w http.ResponseWriter, r *http.Request, name string) {
	ve := s.lib.Video(name)
	if ve == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no video %q", name))
		return
	}
	u := userOf(r)
	if !s.lib.Allowed(u, s.subclusterPath(ve.Subcluster)) {
		writeError(w, http.StatusForbidden, fmt.Sprintf("subcluster %q not accessible", ve.Subcluster))
		return
	}
	res := ve.Result
	fps := res.Video.FPS
	scenes := []sceneJSON{}
	hidden := 0
	for _, sc := range res.Scenes {
		leaf := concept.SceneConcept(ve.Subcluster, sc.Event)
		if !s.lib.Allowed(u, append(s.subclusterPath(ve.Subcluster), leaf)) {
			hidden++
			continue
		}
		first, last := sc.FrameSpan()
		scenes = append(scenes, sceneJSON{
			Index: sc.Index, StartFrame: first, EndFrame: last,
			StartSec: frameSec(first, fps), EndSec: frameSec(last, fps),
			Shots: sc.ShotCount(), Groups: len(sc.Groups), Event: sc.Event.String(),
		})
	}
	var skims []skimLevelJSON
	if res.Skim != nil {
		for l := classminer.SkimLevel1; l <= classminer.SkimLevel4; l++ {
			skims = append(skims, skimLevelJSON{
				Level: int(l), Shots: len(res.Skim.Shots(l)), FCR: res.Skim.FCR(l),
			})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":         name,
		"subcluster":   ve.Subcluster,
		"fps":          fps,
		"durationSec":  durationSec(ve),
		"summary":      res.Summary(),
		"shots":        len(res.Shots),
		"groups":       len(res.Groups),
		"clusters":     len(res.Clusters),
		"scenes":       scenes,
		"scenesHidden": hidden,
		"skim":         skims,
	})
}

func frameSec(frame int, fps float64) float64 {
	if fps <= 0 {
		return 0
	}
	return float64(frame) / fps
}

// --- DELETE /v1/videos/{name} ----------------------------------------------

// handleDeleteVideo retires a video from the library: its entries are
// removed, the generation advances (cached answers die with it), and on a
// durable library a WAL tombstone makes the delete crash-safe before
// anything changes. Deletion is gated like ingestion (IngestClearance) and
// additionally requires the caller to be allowed to see the video's
// subcluster — you cannot delete what policy hides from you
// (DeleteVideoAs runs that check atomically with the removal, so a
// concurrent replacement cannot slip the video behind a policy wall
// between check and delete). In the common case the serving index masks
// the deleted shots incrementally — searches stop ranking them before this
// responds at no O(library) cost — and the full refit is left to the
// coalesced background rebuilder. Only when the index was *already* stale
// at delete time (a mutation the incremental path could not absorb) does
// the handler rebuild synchronously, exactly like the old per-delete path:
// that is the one case where responding first would leave the deleted
// shots searchable for the debounce window.
func (s *Server) handleDeleteVideo(w http.ResponseWriter, r *http.Request, name string) {
	if !s.requireClearance(w, r, s.opts.IngestClearance) {
		return
	}
	if s.rejectFollowerWrite(w) {
		return
	}
	if err := s.lib.DeleteVideoAsCtx(r.Context(), userOf(r), name); err != nil {
		switch {
		case errors.Is(err, classminer.ErrUnknownVideo):
			writeError(w, http.StatusNotFound, fmt.Sprintf("no video %q", name))
		case errors.Is(err, classminer.ErrForbidden):
			writeError(w, http.StatusForbidden, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	if s.lib.IndexStale() {
		if err := s.rebuilder.EnsureLive(); err != nil {
			// The delete is committed; only the rebuild failed. Report it
			// rather than failing the request — the stale index self-heals
			// on the rebuilder's next successful pass.
			s.opts.Logf("rebuild after deleting %q: %v", name, err)
		}
	} else {
		s.rebuilder.Kick()
	}
	s.opts.Logf("deleted video %q", name)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name, "indexLive": !s.lib.IndexStale()})
}

// --- POST /v1/search -------------------------------------------------------

type searchRequest struct {
	// Query is a raw shot feature vector (query by example).
	Query []float64 `json:"query,omitempty"`
	// Video/Shot instead name an indexed shot to use as the example.
	Video string `json:"video,omitempty"`
	Shot  int    `json:"shot,omitempty"`
	K     int    `json:"k,omitempty"`
}

type searchHit struct {
	Video   string   `json:"video"`
	Shot    int      `json:"shot"`
	Start   int      `json:"start"`
	End     int      `json:"end"`
	Concept string   `json:"concept"`
	Path    []string `json:"path"`
	Dist    float64  `json:"dist"`
}

type searchResponse struct {
	Hits   []searchHit            `json:"hits"`
	Stats  classminer.SearchStats `json:"stats"`
	K      int                    `json:"k"`
	Cached bool                   `json:"cached"`
}

// resolveQuery turns a search request's query spec (raw vector or
// video+shot example) into a feature vector. On failure it writes the HTTP
// error and returns false.
func (s *Server) resolveQuery(w http.ResponseWriter, u access.User, req searchRequest) ([]float64, bool) {
	query := req.Query
	if req.Video != "" {
		ve := s.lib.Video(req.Video)
		if ve == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no video %q", req.Video))
			return nil, false
		}
		if !s.lib.Allowed(u, s.subclusterPath(ve.Subcluster)) {
			writeError(w, http.StatusForbidden, fmt.Sprintf("subcluster %q not accessible", ve.Subcluster))
			return nil, false
		}
		if req.Shot < 0 || req.Shot >= len(ve.Result.Shots) {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("video %q has %d shots", req.Video, len(ve.Result.Shots)))
			return nil, false
		}
		query = ve.Result.Shots[req.Shot].Feature()
	}
	if len(query) == 0 {
		writeError(w, http.StatusBadRequest, "provide either query (feature vector) or video+shot")
		return nil, false
	}
	if want := s.featureDim(); want > 0 && len(query) != want {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("query has %d dims, want %d", len(query), want))
		return nil, false
	}
	return query, true
}

// clampK applies the search-k defaults and bounds.
func clampK(k int) int {
	if k <= 0 {
		return 10
	}
	if k > 100 {
		return 100
	}
	return k
}

// buildSearchResponse renders ranked hits into the JSON response shape.
func buildSearchResponse(hits []classminer.SearchHit, stats classminer.SearchStats, k int) searchResponse {
	resp := searchResponse{Hits: make([]searchHit, 0, len(hits)), Stats: stats, K: k}
	for _, h := range hits {
		concept := ""
		if n := len(h.Entry.Path); n > 0 {
			concept = h.Entry.Path[n-1]
		}
		resp.Hits = append(resp.Hits, searchHit{
			Video: h.Entry.VideoName, Shot: h.Entry.Shot.Index,
			Start: h.Entry.Shot.Start, End: h.Entry.Shot.End,
			Concept: concept, Path: h.Entry.Path, Dist: h.Dist,
		})
	}
	return resp
}

// hitsPool recycles the ranked-hit scratch between uncached searches: the
// library's SearchInto fills it and buildSearchResponse copies what the
// response (and the cache) retain, so the scratch itself never escapes.
// Capacity covers the clamped k, so steady state never regrows it.
var hitsPool = sync.Pool{New: func() any {
	s := make([]classminer.SearchHit, 0, 128)
	return &s
}}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sp := trace.SpanFrom(r.Context())
	u := userOf(r)
	rq := sp.Start("resolve")
	query, ok := s.resolveQuery(w, u, req)
	rq.End()
	if !ok {
		return
	}
	k := clampK(req.K)
	key := makeKey(s.lib.Generation(), u, query, k)
	cg := sp.Start("cache.get")
	resp, hit := s.cache.Get(key, query)
	cg.End()
	if hit {
		sp.SetAttr("cache", "hit")
		resp.Cached = true
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if s.deadlineExpired(w, r) {
		return
	}
	scratch := hitsPool.Get().(*[]classminer.SearchHit)
	hits, stats, err := s.lib.SearchIntoCtx(r.Context(), (*scratch)[:0], u, query, k)
	if err != nil && s.healColdIndex() {
		hits, stats, err = s.lib.SearchIntoCtx(r.Context(), (*scratch)[:0], u, query, k)
	}
	if err != nil {
		hitsPool.Put(scratch)
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if s.deadlineExpired(w, r) {
		hitsPool.Put(scratch)
		return
	}
	resp = buildSearchResponse(hits, stats, k)
	*scratch = hits[:0]
	hitsPool.Put(scratch)
	cp := sp.Start("cache.put")
	s.cache.Put(key, query, resp)
	cp.End()
	writeJSON(w, http.StatusOK, resp)
}

// --- POST /v1/search/batch -------------------------------------------------

// maxBatchItems bounds one batch request; larger workloads should paginate.
const maxBatchItems = 256

type batchSearchRequest struct {
	// Items are query specs (raw vector or video+shot); per-item K is not
	// supported — the request-level K applies to every item.
	Items []searchRequest `json:"items"`
	K     int             `json:"k,omitempty"`
}

type batchSearchResponse struct {
	Results []searchResponse `json:"results"`
}

// handleSearchBatch answers many searches in one round trip: items already
// in the generation-keyed cache are served from it, the rest fan out across
// cores via Library.SearchBatch, and every fresh answer is cached
// individually so later single-item searches hit too.
func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req batchSearchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no items")
		return
	}
	if len(req.Items) > maxBatchItems {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d items, max %d", len(req.Items), maxBatchItems))
		return
	}
	u := userOf(r)
	k := clampK(req.K)
	queries := make([][]float64, len(req.Items))
	for i, item := range req.Items {
		if item.K != 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("item %d sets k; set it once at the request level", i))
			return
		}
		q, ok := s.resolveQuery(w, u, item)
		if !ok {
			return
		}
		queries[i] = q
	}
	gen := s.lib.Generation()
	results := make([]searchResponse, len(req.Items))
	// Deduplicate uncached items by cache key so repeated specs in one
	// batch run a single search; itemMiss maps each uncached item to its
	// slot in the deduped fan-out.
	itemMiss := make([]int, len(req.Items))
	missPos := map[cacheKey]int{}
	var missKeys []cacheKey
	var missQueries [][]float64
	for i, q := range queries {
		key := makeKey(gen, u, q, k)
		if resp, ok := s.cache.Get(key, q); ok {
			resp.Cached = true
			results[i] = resp
			itemMiss[i] = -1
			continue
		}
		pos, dup := missPos[key]
		if dup && !sameQuery(missQueries[pos], q) {
			dup = false // 64-bit hash collision: keep the queries separate
		}
		if !dup {
			pos = len(missQueries)
			missPos[key] = pos
			missKeys = append(missKeys, key)
			missQueries = append(missQueries, q)
		}
		itemMiss[i] = pos
	}
	if len(missQueries) > 0 {
		if s.deadlineExpired(w, r) {
			return
		}
		hits, stats, err := s.lib.SearchBatch(u, missQueries, k)
		if err != nil && s.healColdIndex() {
			hits, stats, err = s.lib.SearchBatch(u, missQueries, k)
		}
		if err != nil {
			writeError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		if s.deadlineExpired(w, r) {
			return
		}
		missResp := make([]searchResponse, len(missQueries))
		for pos := range missQueries {
			missResp[pos] = buildSearchResponse(hits[pos], stats[pos], k)
			s.cache.Put(missKeys[pos], missQueries[pos], missResp[pos])
		}
		for i, pos := range itemMiss {
			if pos >= 0 {
				results[i] = missResp[pos]
			}
		}
	}
	writeJSON(w, http.StatusOK, batchSearchResponse{Results: results})
}

// healColdIndex recovers the one search failure that is the server's own
// rather than the client's: a populated library whose index has never been
// fit — a read replica that has only ever applied replicated records, or a
// freshly recovered process before its first local mutation. It fits the
// index synchronously (single-flight via the rebuilder) and reports whether
// retrying the search is worthwhile.
func (s *Server) healColdIndex() bool {
	if s.lib.Size() == 0 || !s.lib.IndexStale() {
		return false
	}
	return s.rebuilder.EnsureLive() == nil
}

// featureDim returns the library's shot-feature dimensionality (0 when no
// video is registered yet). The dimensionality is a constant of the
// feature extractor, so the first successful resolution is cached and the
// per-library scan never runs again on the hot search path.
func (s *Server) featureDim() int {
	if d := s.featDim.Load(); d > 0 {
		return int(d)
	}
	for _, name := range s.lib.VideoNames() {
		if ve := s.lib.Video(name); ve != nil && len(ve.Result.Shots) > 0 {
			d := len(ve.Result.Shots[0].Feature())
			s.featDim.Store(int64(d))
			return d
		}
	}
	return 0
}

// --- GET /v1/events/{kind} -------------------------------------------------

// parseEventKind accepts the String() spellings plus natural aliases.
func parseEventKind(s string) (vidmodel.EventKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "presentation":
		return vidmodel.EventPresentation, nil
	case "dialog", "dialogue":
		return vidmodel.EventDialog, nil
	case "clinical-operation", "clinical operation", "clinical", "operation":
		return vidmodel.EventClinicalOperation, nil
	}
	return vidmodel.EventUnknown, fmt.Errorf("unknown event kind %q (want presentation, dialog or clinical-operation)", s)
}

type eventSceneJSON struct {
	Video      string  `json:"video"`
	Scene      int     `json:"scene"`
	StartFrame int     `json:"startFrame"`
	EndFrame   int     `json:"endFrame"`
	StartSec   float64 `json:"startSec"`
	EndSec     float64 `json:"endSec"`
	Shots      int     `json:"shots"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, kindName string) {
	kind, err := parseEventKind(kindName)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	refs := s.lib.ScenesByEvent(userOf(r), kind)
	scenes := []eventSceneJSON{}
	for _, ref := range refs {
		fps := 0.0
		if ve := s.lib.Video(ref.VideoName); ve != nil {
			fps = ve.Result.Video.FPS
		}
		first, last := ref.Scene.FrameSpan()
		scenes = append(scenes, eventSceneJSON{
			Video: ref.VideoName, Scene: ref.Scene.Index,
			StartFrame: first, EndFrame: last,
			StartSec: frameSec(first, fps), EndSec: frameSec(last, fps),
			Shots: ref.Scene.ShotCount(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"kind": kind.String(), "scenes": scenes})
}

// --- POST /v1/videos (async ingestion) -------------------------------------

type ingestRequest struct {
	// Subcluster places the video in the concept hierarchy (required).
	Subcluster string `json:"subcluster"`
	// Corpus names a synthetic corpus script to mine (with Scale and Seed).
	Corpus string  `json:"corpus,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	Seed   int64   `json:"seed,omitempty"`
	// Saved instead supplies an already-mined result to load as-is.
	Saved *store.SavedResult `json:"saved,omitempty"`
	// Name overrides the registered video name.
	Name string `json:"name,omitempty"`
	// Replace opts into supersede-on-conflict: when the name is already
	// registered the new mining result replaces it (atomically journaled
	// on a durable library) instead of the request failing with 409.
	Replace bool `json:"replace,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, s.opts.IngestClearance) {
		return
	}
	if s.rejectFollowerWrite(w) {
		return
	}
	// The memory watchdog's last stage: refuse new data while reads keep
	// answering. Recovery is automatic — once the heap drops back under the
	// budget the watchdog steps down and ingest reopens.
	if s.admit.degradeLevel() >= admit.LevelRejectIngest {
		s.admit.countReject(rejMemory)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable,
			"server under memory pressure; ingest temporarily disabled")
		return
	}
	// Durable-backlog backpressure, same shape as the memory stage: when the
	// WAL outruns its checkpoint/compaction budget, or an attached follower's
	// replication lag exceeds its budget, shed new data instead of digging
	// the hole deeper. Both conditions drain on their own (background
	// checkpointer/compactor, follower pulls), so Retry-After is honest.
	if reason, msg, hit := s.writeBackpressure(); hit {
		s.admit.countReject(reason)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, msg)
		return
	}
	var req ingestRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Subcluster == "" || !s.lib.HasSubcluster(req.Subcluster) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown subcluster %q", req.Subcluster))
		return
	}
	if (req.Corpus == "") == (req.Saved == nil) {
		writeError(w, http.StatusBadRequest, "provide exactly one of corpus or saved")
		return
	}
	name := req.Name
	switch {
	case req.Corpus != "":
		if synth.CorpusScript(req.Corpus, 1, 1) == nil {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("unknown corpus video %q (have %v)", req.Corpus, synth.CorpusNames()))
			return
		}
		if name == "" {
			name = req.Corpus
		}
	default:
		if name == "" {
			name = req.Saved.VideoName
		}
		if name == "" {
			writeError(w, http.StatusBadRequest, "saved result has no video name")
			return
		}
	}
	u := userOf(r)
	if ve := s.lib.Video(name); ve != nil {
		if !req.Replace {
			writeError(w, http.StatusConflict, fmt.Sprintf("video %q already registered", name))
			return
		}
		// Superseding destroys the existing registration, so it is gated
		// like DELETE: the caller must be allowed to see it. This check is
		// a fast 403; the authoritative one runs atomically inside
		// ReplaceResultAs/ReplaceVideoAsCtx when the job applies.
		if !s.lib.Allowed(u, s.subclusterPath(ve.Subcluster)) {
			writeError(w, http.StatusForbidden, fmt.Sprintf("subcluster %q not accessible", ve.Subcluster))
			return
		}
	}
	if s.deadlineExpired(w, r) {
		return
	}
	job := &Job{Video: name, Subcluster: req.Subcluster, RequestID: requestID(r), req: req, user: u}
	if err := s.pool.Submit(job); err != nil {
		if errors.Is(err, ErrQueueFull) && s.metrics != nil {
			s.metrics.ingestRejected.Inc()
		}
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.opts.Logf("job %s: queued ingest of %q into %q rid=%s", job.ID, name, req.Subcluster, job.RequestID)
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, s.pool.Get(job.ID))
}

// runJob executes one ingestion on a pool worker: mine (or decode) the
// video and register it. Registration inserts the new shots into the
// serving index incrementally, so the video is searchable the moment the
// job completes; the O(library) refit is left to the coalesced background
// rebuilder and only the cold-start case (no index yet, or a mutation the
// incremental path could not absorb) builds synchronously — single-flight,
// so a burst of first ingests shares one build.
func (s *Server) runJob(j *Job) {
	// The originating request's context is long dead by the time a worker
	// picks the job up, so the job runs under its own trace, correlated back
	// to the submission through the request id it carries. Job traces go
	// through the same tail sampler as requests: a failed job is always kept.
	var sid [8]byte
	trace.PutUint64(sid[:], trace.RandU64())
	tr, root := s.tracer.StartTrace("job", sid, "")
	root.SetAttr("video", j.Video)
	ctx := context.Background()
	if root != nil {
		ctx = trace.With(ctx, root)
	}
	err := func() error {
		if j.req.Saved != nil {
			res, err := store.DecodeResult(j.req.Saved)
			if err != nil {
				return err
			}
			res.Video.Name = j.Video
			if j.req.Replace {
				return s.lib.ReplaceResultAsCtx(ctx, j.user, res, j.Subcluster)
			}
			return s.lib.AddResultCtx(ctx, res, j.Subcluster)
		}
		scale := j.req.Scale
		if scale <= 0 {
			scale = 0.5
		}
		seed := j.req.Seed
		if seed == 0 {
			seed = 2003
		}
		script := synth.CorpusScript(j.req.Corpus, scale, seed)
		if script == nil {
			return fmt.Errorf("unknown corpus video %q", j.req.Corpus)
		}
		v, err := synth.Generate(synth.DefaultConfig(), script, seed)
		if err != nil {
			return err
		}
		v.Name = j.Video
		if j.req.Replace {
			_, err = s.lib.ReplaceVideoAsCtx(ctx, j.user, v, j.Subcluster)
		} else {
			_, err = s.lib.AddVideoCtx(ctx, v, j.Subcluster)
		}
		return err
	}()
	if err == nil {
		if s.lib.IndexStale() {
			err = s.rebuilder.EnsureLive()
		} else {
			s.rebuilder.Kick()
		}
	}
	meta := trace.Meta{Route: "job", RequestID: j.RequestID}
	if err != nil {
		meta.Err = err.Error()
	}
	s.tracer.Finish(tr, meta)
	if err != nil {
		s.opts.Logf("job %s: failed: %v rid=%s", j.ID, err, j.RequestID)
		s.pool.Fail(j, err)
		return
	}
	s.opts.Logf("job %s: ingested %q into %q rid=%s", j.ID, j.Video, j.Subcluster, j.RequestID)
}

// --- GET /v1/jobs/{id} -----------------------------------------------------

func (s *Server) handleJob(w http.ResponseWriter, _ *http.Request, id string) {
	j := s.pool.Get(id)
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// --- POST /v1/admin/save ---------------------------------------------------

func (s *Server) handleAdminSave(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if s.opts.SnapshotPath == "" {
		writeError(w, http.StatusNotImplemented, "no snapshot path configured")
		return
	}
	if err := store.WriteFileAtomic(s.opts.SnapshotPath, s.lib.Save); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.opts.Logf("library snapshot saved to %s", s.opts.SnapshotPath)
	writeJSON(w, http.StatusOK, map[string]string{"saved": s.opts.SnapshotPath})
}

// --- POST /v1/admin/checkpoint ---------------------------------------------

// handleAdminCheckpoint folds the durable library's write-ahead log into a
// fresh snapshot on demand (the background checkpointer handles the
// threshold-driven case). Only meaningful when the daemon runs with
// -data-dir.
func (s *Server) handleAdminCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if !s.lib.Durable() {
		writeError(w, http.StatusNotImplemented, "library is not durable (start with -data-dir)")
		return
	}
	if err := s.lib.Checkpoint(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ws, _ := s.lib.WALStats()
	s.opts.Logf("admin checkpoint: generation %d", ws.Generation)
	writeJSON(w, http.StatusOK, map[string]any{"checkpointed": true, "wal": ws})
}

// --- POST /v1/admin/compact ------------------------------------------------

// handleAdminCompact rewrites the WAL's sealed segments on demand, dropping
// registrations that deletes and replacements superseded (the background
// compactor handles the dead-bytes-threshold case). Only meaningful when
// the daemon runs with -data-dir.
func (s *Server) handleAdminCompact(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if !s.lib.Durable() {
		writeError(w, http.StatusNotImplemented, "library is not durable (start with -data-dir)")
		return
	}
	cs, err := s.lib.Compact()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	ws, _ := s.lib.WALStats()
	s.opts.Logf("admin compaction: %d records (%d bytes) dropped", cs.RecordsDropped, cs.BytesFreed)
	writeJSON(w, http.StatusOK, map[string]any{"compacted": cs, "wal": ws})
}

// --- replication: /v1/repl/*, /v1/admin/promote ------------------------------

// handleReplPull and handleReplSnapshot route to the replication hub after
// the clearance gate — the protocol itself (cursor validation, long-poll,
// 410 semantics) lives in internal/repl, so its tests exercise the real
// wire format without a Server.
func (s *Server) handleReplPull(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if s.opts.ReplHub == nil {
		writeError(w, http.StatusNotImplemented, "replication not enabled (leader needs -data-dir)")
		return
	}
	s.opts.ReplHub.ServePull(w, r)
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if s.opts.ReplHub == nil {
		writeError(w, http.StatusNotImplemented, "replication not enabled (leader needs -data-dir)")
		return
	}
	s.opts.ReplHub.ServeSnapshot(w, r)
}

// handleAdminPromote flips a follower into a write-accepting leader: the
// pull loops stop (blocking until the in-flight batch is applied), and the
// write path opens. Idempotent — promoting a leader (or twice) reports the
// current role without error, so a failover script can fire it blindly.
// The node's own WAL journaled every replicated record, so no state needs
// rebuilding; what was applied before the old leader died is exactly what
// the new leader serves.
func (s *Server) handleAdminPromote(w http.ResponseWriter, r *http.Request) {
	if !s.requireClearance(w, r, classminer.Administrator) {
		return
	}
	if s.opts.Follower == nil {
		writeJSON(w, http.StatusOK, map[string]any{"role": s.role(), "promoted": false})
		return
	}
	promoted := s.promoted.CompareAndSwap(false, true)
	if promoted {
		s.opts.Follower.Promote()
		s.opts.Logf("promoted to leader; replication stopped")
	}
	writeJSON(w, http.StatusOK, map[string]any{"role": s.role(), "promoted": promoted})
}

// rejectFollowerWrite refuses mutations on an unpromoted follower, pointing
// the client at the leader. 503 rather than 403: the client's request is
// legitimate, this node just isn't the one that takes it (and will be, the
// moment it is promoted).
func (s *Server) rejectFollowerWrite(w http.ResponseWriter) bool {
	if !s.isFollower() {
		return false
	}
	if s.opts.LeaderURL != "" {
		w.Header().Set("X-Repl-Leader", s.opts.LeaderURL)
	}
	writeError(w, http.StatusServiceUnavailable, "read-only follower; send writes to the leader")
	return true
}

// writeBackpressure reports whether the durable write path should shed new
// ingest, and why: the WAL's un-checkpointed or dead bytes exceeded
// WALPressureBytes, or an attached follower's unshipped backlog exceeded
// ReplLagBytes.
func (s *Server) writeBackpressure() (rejectReason, string, bool) {
	if b := s.opts.WALPressureBytes; b > 0 {
		if ws, ok := s.lib.WALStats(); ok && (ws.Bytes > b || ws.DeadBytes > b) {
			return rejWALPressure, fmt.Sprintf(
				"WAL backlog %d bytes (%d dead) exceeds budget %d; retry after checkpoint/compaction",
				ws.Bytes, ws.DeadBytes, b), true
		}
	}
	if b := s.opts.ReplLagBytes; b > 0 && s.opts.ReplHub != nil {
		if _, lag := s.opts.ReplHub.MaxLag(); lag > b {
			return rejReplLag, fmt.Sprintf(
				"replication lag %d bytes exceeds budget %d; retry once followers catch up",
				lag, b), true
		}
	}
	return 0, "", false
}
