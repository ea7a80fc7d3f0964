// Package classminer is a from-scratch Go implementation of ClassMiner —
// the medical video mining framework of Zhu, Aref, Fan, Catlin and
// Elmagarmid, "Medical Video Mining for Efficient Database Indexing,
// Management and Access" (ICDE 2003).
//
// The package offers two entry points:
//
//   - Analyzer mines a single video's content structure (shots → groups →
//     scenes → clustered scenes), mines the three event categories
//     (presentation, dialog, clinical operation) from visual and audio
//     cues, and builds the four-level scalable skimming of §5.
//
//   - Library manages a collection of mined videos behind the paper's
//     hierarchical database model: a concept-derived index with
//     multi-center non-leaf nodes and hash-table leaves (§2, §6.2), and
//     hierarchical multilevel access control.
//
// A third entry point lives outside this package: internal/server wraps a
// Library in a concurrent HTTP/JSON API and cmd/classminerd runs it as a
// daemon. See README.md for the package map, quickstart and experiment
// commands (cmd/experiments regenerates every figure and table).
package classminer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"classminer/internal/access"
	"classminer/internal/concept"
	"classminer/internal/core"
	"classminer/internal/index"
	"classminer/internal/mat"
	"classminer/internal/metrics"
	"classminer/internal/skim"
	"classminer/internal/store"
	"classminer/internal/trace"
	"classminer/internal/vidmodel"
	"classminer/internal/wal"
)

// Re-exported media and result types. These aliases are the public face of
// the internal model; downstream code only imports this package.
type (
	// Video is a decoded media document (frames + aligned audio).
	Video = vidmodel.Video
	// Frame is a small dense RGB raster.
	Frame = vidmodel.Frame
	// AudioTrack is a mono PCM stream.
	AudioTrack = vidmodel.AudioTrack
	// Shot is the physical unit of §3 Definition 2.
	Shot = vidmodel.Shot
	// Group is the intermediate unit between shots and scenes.
	Group = vidmodel.Group
	// Scene is a collection of semantically related adjacent groups.
	Scene = vidmodel.Scene
	// ClusteredScene groups recurrences of visually similar scenes.
	ClusteredScene = vidmodel.ClusteredScene
	// EventKind is a mined event category.
	EventKind = vidmodel.EventKind
	// Options configures the mining pipeline.
	Options = core.Options
	// Result is the mined content structure of one video.
	Result = core.Result
	// User is an access-control subject.
	User = access.User
	// Clearance is a multilevel-security level.
	Clearance = access.Clearance
	// Rule protects a concept subtree.
	Rule = access.Rule
	// SearchHit is one ranked query result.
	SearchHit = index.Result
	// SearchStats counts the work a search performed (§6.2 cost model).
	SearchStats = index.Stats
	// SkimLevel indexes the four scalable-skimming layers of §5.
	SkimLevel = skim.Level
	// Skim is a built scalable skimming.
	Skim = skim.Skim
	// DurableOptions configures the write-ahead log behind Recover.
	DurableOptions = wal.Options
	// WALStats reports a durable library's log lag (records and bytes
	// appended since the last checkpoint, and how much of it is dead —
	// superseded by deletes and replacements).
	WALStats = wal.Stats
	// CompactStats reports what one sealed-segment compaction reclaimed.
	CompactStats = wal.CompactResult
)

// Write-ahead-log fsync policies for DurableOptions.Sync.
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNever    = wal.SyncNever
)

// ErrDuplicateVideo reports a registration under a name the library already
// holds. Recovery relies on it: records that straddle a checkpoint appear
// in both the snapshot and the log tail, and replay skips the second copy
// by matching this error.
var ErrDuplicateVideo = errors.New("classminer: video already registered")

// ErrUnknownVideo reports a delete of a name the library does not hold.
var ErrUnknownVideo = errors.New("classminer: video not registered")

// ErrForbidden reports a policy-gated mutation the user may not perform
// (DeleteVideoAs on a video whose subcluster the policy hides from them).
var ErrForbidden = errors.New("classminer: access denied")

// The four skimming layers (granularity increases from 4 down to 1).
const (
	SkimLevel1 = skim.Level1
	SkimLevel2 = skim.Level2
	SkimLevel3 = skim.Level3
	SkimLevel4 = skim.Level4
)

// Event categories (§4.3).
const (
	EventUnknown           = vidmodel.EventUnknown
	EventPresentation      = vidmodel.EventPresentation
	EventDialog            = vidmodel.EventDialog
	EventClinicalOperation = vidmodel.EventClinicalOperation
)

// Clearance levels of the built-in lattice.
const (
	Public        = access.Public
	Student       = access.Student
	Nurse         = access.Nurse
	Clinician     = access.Clinician
	Administrator = access.Administrator
)

// Analyzer mines video content structure and events. Construct once with
// NewAnalyzer and reuse across videos (it holds a trained audio classifier).
type Analyzer struct {
	inner *core.Analyzer
}

// NewAnalyzer builds a mining pipeline; the zero Options reproduce the
// paper's published settings.
func NewAnalyzer(opts Options) (*Analyzer, error) {
	inner, err := core.NewAnalyzer(opts)
	if err != nil {
		return nil, err
	}
	return &Analyzer{inner: inner}, nil
}

// Analyze runs the full Fig. 3 pipeline on one video.
func (a *Analyzer) Analyze(v *Video) (*Result, error) { return a.inner.Analyze(v) }

// VideoEntry is a video registered in a Library.
type VideoEntry struct {
	Result     *Result
	Subcluster string // concept hierarchy placement (e.g. "medicine")
}

// Library is the paper's video database: mined videos behind a
// concept-hierarchy index with access control. All methods are safe for
// concurrent use; reads proceed in parallel while registration, deletion
// and policy changes serialise. BuildIndex is copy-on-write: the expensive
// fit runs outside the lock against a snapshot of the entries and the
// finished index is swapped in atomically, so concurrent searches keep
// answering from the previous index (at worst slightly stale) instead of
// blocking or erroring while a rebuild is in flight. Deletion and
// replacement (DeleteVideo, ReplaceResult/ReplaceVideoAsCtx) follow the same
// discipline: the entry set and flat feature matrix are rebuilt into fresh
// arrays and the old index serves until the next BuildIndex.
type Library struct {
	mu        sync.RWMutex
	analyzer  *Analyzer
	hierarchy *concept.Hierarchy
	policy    *access.Policy
	videos    map[string]*VideoEntry
	entries   []*index.Entry
	// featData is the flat row-major feature matrix over entries (row i =
	// entries[i], featDim columns), grown at registration and reused across
	// every index rebuild so BuildIndex never re-extracts shot features.
	featData []float64
	featDim  int
	ix       *index.Index
	// entriesVer counts entry-set mutations; ixVer is the entriesVer the
	// installed index reflects (index is stale while they differ —
	// incremental maintenance usually keeps them equal). ixFitVer is the
	// entriesVer of the installed index's last *full fit*: the gap between
	// it and ixVer is served by the incremental overlay. lastRemoveVer
	// records the entriesVer of the most recent removal, which compacts the
	// entry arrays — a BuildIndex snapshotted before it fit rows that no
	// longer exist and must be discarded.
	entriesVer    int64
	ixVer         int64
	ixFitVer      int64
	lastRemoveVer int64
	// gen counts every mutation that can change what a query returns
	// (registration, index swap, policy change). Caches key on it.
	gen int64
	// journal, when non-nil, is the durable storage engine: register,
	// replace and delete append their encoded records to it before
	// mutating in-memory state, and Recover rebuilds the library from its
	// snapshot + log.
	journal *wal.Engine
	// logBytes tracks, per registered video, the on-log size of its
	// journal record (payload + frame overhead) so a delete or replacement
	// can tell the engine how much log just went dead — the signal that
	// triggers sealed-segment compaction. Entries exist only for records
	// on the live log: snapshot-loaded videos have none, and a checkpoint
	// clears the map (their records are about to be pruned with the
	// superseded segments). The figures feed a trigger heuristic, not
	// correctness — Compact recomputes exact deadness from the log itself.
	logBytes map[string]int64
	// deadNote receives (records, bytes) whenever a live log record is
	// superseded: wal.Engine.NoteDead once the journal is attached, a
	// local accumulator while Recover replays (the engine's counters are
	// seeded from it afterwards), nil on a non-durable library.
	deadNote func(records, bytes int64)
	// pendingAck tracks registrations that are installed and staged on the
	// log but whose group commit has not resolved yet: the name maps to the
	// staged record's durability handle. Save waits these out (or drops the
	// ones whose batched fsync failed) so a snapshot never strands a record
	// the log was about to make durable — or resurrect one it clawed back.
	pendingAck map[string]wal.Commit
	// met holds the library's lifecycle instruments (see Instrument). The
	// zero value is fully inert: every instrument is a nil pointer whose
	// methods are no-ops, so un-instrumented libraries pay nothing.
	met libMetrics
}

// libMetrics counts library lifecycle events for the /metrics exposition.
type libMetrics struct {
	registrations *metrics.Counter // fresh registrations installed
	replacements  *metrics.Counter // existing registrations superseded
	deletes       *metrics.Counter // videos unregistered
	ixInserts     *metrics.Counter // shots absorbed into the serving index incrementally
	ixRemoves     *metrics.Counter // shots masked out of the serving index incrementally
}

// Instrument registers the library's metrics on reg: lifecycle counters
// (registrations, replacements, deletes), incremental index maintenance
// counters, and size/staleness gauges sampled at scrape time. The first
// call wins — a second registry gets the gauges (their callbacks read the
// library directly) but the counters keep feeding the first, so one library
// serves one authoritative set of series no matter how many servers wrap it.
// Instruments are created outside l.mu: scrape-time gauge callbacks take
// l.mu while the registry's lock is held, so registering under l.mu would
// invert that order.
func (l *Library) Instrument(reg *metrics.Registry) {
	m := libMetrics{
		registrations: reg.Counter("classminer_registrations_total",
			"Videos registered (fresh names; replacements counted separately)."),
		replacements: reg.Counter("classminer_replacements_total",
			"Existing registrations superseded by re-ingest."),
		deletes: reg.Counter("classminer_deletes_total",
			"Videos unregistered."),
		ixInserts: reg.Counter("classminer_index_incremental_inserts_total",
			"Shots absorbed into the serving index without a full refit."),
		ixRemoves: reg.Counter("classminer_index_incremental_removes_total",
			"Shots masked out of the serving index without a full refit."),
	}
	reg.GaugeFunc("classminer_videos", "Videos currently registered.",
		func() float64 { l.mu.RLock(); defer l.mu.RUnlock(); return float64(len(l.videos)) })
	reg.GaugeFunc("classminer_shots", "Indexable shots currently registered.",
		func() float64 { return float64(l.Size()) })
	reg.GaugeFunc("classminer_index_staleness",
		"Incremental-overlay fraction of the serving index (0 = freshly fit).",
		func() float64 { return l.IndexStaleness() })
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.met.registrations == nil {
		l.met = m
	}
}

// NewLibrary creates an empty library using the Fig. 2 medical concept
// hierarchy and the given analyzer.
func NewLibrary(a *Analyzer) *Library {
	return &Library{
		analyzer:  a,
		hierarchy: concept.Medical(),
		policy:    access.NewPolicy(),
		videos:    map[string]*VideoEntry{},
	}
}

// Protect adds an access-control rule over a concept subtree.
func (l *Library) Protect(r Rule) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.policy.Add(r)
	l.gen++
}

// Generation returns a counter that advances whenever a mutation could
// change what a query returns. Result caches key on it so an ingested
// video, an index swap or a new protection rule invalidates stale answers.
func (l *Library) Generation() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.gen
}

// checkSubcluster verifies that name is an actual subcluster-level concept
// ("medicine", "nursing", "dentistry"). Placement must happen at that
// level: shot paths are rooted under the subcluster's ancestors, so filing
// a video under a cluster or scene concept would put it outside the
// subtrees that protection rules govern.
func (l *Library) checkSubcluster(name string) error {
	n := l.hierarchy.Find(name)
	if n == nil || n.Level != concept.LevelSubcluster {
		return fmt.Errorf("classminer: unknown subcluster concept %q", name)
	}
	return nil
}

// AddVideo mines a video and registers its shots under the given
// subcluster concept ("medicine", "nursing", "dentistry"). The index is
// invalidated; call BuildIndex after the last AddVideo.
func (l *Library) AddVideo(v *Video, subcluster string) (*Result, error) {
	return l.AddVideoCtx(context.Background(), v, subcluster)
}

// AddVideoCtx is AddVideo with tracing: when ctx carries a trace span
// (a traced ingest job), the mining, journaling, and install stages each
// record child spans.
func (l *Library) AddVideoCtx(ctx context.Context, v *Video, subcluster string) (*Result, error) {
	if err := l.checkSubcluster(subcluster); err != nil {
		return nil, err
	}
	l.mu.RLock()
	_, dup := l.videos[v.Name]
	l.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateVideo, v.Name)
	}
	// Mining runs outside the lock: it is the slow part and touches no
	// shared state.
	sp := trace.StartSpan(ctx, "mine")
	res, err := l.analyzer.Analyze(v)
	sp.End()
	if err != nil {
		return nil, err
	}
	return res, l.register(ctx, v.Name, res, subcluster)
}

// AddResult registers an already-mined result (e.g. loaded from a snapshot
// or produced by a remote miner) under the given subcluster concept. Like
// AddVideo it leaves the index stale; call BuildIndex afterwards.
func (l *Library) AddResult(res *Result, subcluster string) error {
	return l.AddResultCtx(context.Background(), res, subcluster)
}

// AddResultCtx is AddResult with tracing (see AddVideoCtx).
func (l *Library) AddResultCtx(ctx context.Context, res *Result, subcluster string) error {
	if res == nil || res.Video == nil {
		return fmt.Errorf("classminer: nil result")
	}
	if err := l.checkSubcluster(subcluster); err != nil {
		return err
	}
	return l.register(ctx, res.Video.Name, res, subcluster)
}

// register installs a mined result under the lock (via installLocked),
// refusing names the library already holds.
//
// On a durable library the registration is write-ahead logged: the encoded
// record is staged on the log before any in-memory state changes, so every
// registration the caller saw succeed is replayed by Recover after a crash.
// Validation runs first — a registration that would fail must never reach
// the log, or replay would resurrect it. The stage and the install happen
// in one critical section (log order always equals install order), but the
// covering fsync is *waited for outside the write lock*: concurrent
// registrations stage into the same write-ahead-log batch and share one
// group-commit flush, so durable ingest throughput scales with writers
// instead of serialising the whole pool on one disk flush per record. The
// registration is visible to searches the moment it is installed, a
// deliberate pre-ack read: if the batched fsync fails, the install is
// compensated away and the caller told the registration failed — exactly
// what the log (which clawed the record back) will replay. Replace and
// DeleteVideo keep their synchronous shape (stage, wait, then apply under
// the lock) — they still coalesce into whatever batch is in flight.
func (l *Library) register(ctx context.Context, name string, res *Result, subcluster string) error {
	sp := trace.StartSpan(ctx, "register")
	defer sp.End()
	if sp != nil {
		// Nest the encode/install/WAL child spans under "register" rather
		// than the caller's span; the WithValue costs nothing untraced.
		ctx = trace.With(ctx, sp)
	}
	// Encode the journal record outside the write lock: serialising a
	// large mined result is the slow part and needs no library state.
	enc := sp.Start("encode")
	rec, err := l.encodeJournalRecord(wal.RecordRegister, name, res, subcluster)
	if err != nil {
		enc.End()
		return err
	}
	// Deriving the index entries needs no library state; do it outside the
	// write lock so concurrent registrations overlap the work instead of
	// queueing it behind one another.
	newEntries := res.IndexEntries(subcluster)
	enc.End()
	inst := sp.Start("install") // includes the write-lock wait
	l.mu.Lock()
	if _, dup := l.videos[name]; dup {
		l.mu.Unlock()
		inst.End()
		return fmt.Errorf("%w: %q", ErrDuplicateVideo, name)
	}
	dim, err := l.checkEntryDims(name, newEntries, l.featDim)
	if err != nil {
		l.mu.Unlock()
		inst.End()
		return err
	}
	if rec == nil || l.journal == nil {
		l.installLocked(name, res, subcluster, newEntries, dim)
		l.met.registrations.Inc()
		l.mu.Unlock()
		inst.End()
		return nil
	}
	c, err := l.journal.Begin(rec)
	if err != nil {
		l.mu.Unlock()
		inst.End()
		return fmt.Errorf("classminer: journaling %q: %w", name, err)
	}
	l.setLogSizeLocked(name, int64(len(rec))+wal.FrameOverhead)
	l.installLocked(name, res, subcluster, newEntries, dim)
	ve := l.videos[name]
	if l.pendingAck == nil {
		l.pendingAck = map[string]wal.Commit{}
	}
	l.pendingAck[name] = c
	l.mu.Unlock()
	inst.End()

	if err := c.WaitCtx(ctx); err != nil {
		l.undoUnacked(name, ve)
		return fmt.Errorf("classminer: journaling %q: %w", name, err)
	}
	l.mu.Lock()
	delete(l.pendingAck, name)
	l.mu.Unlock()
	l.met.registrations.Inc()
	return nil
}

// undoUnacked compensates a registration whose staged record was clawed
// back by a failed batched fsync: the install is removed again (unless a
// replacement — whose own record post-dates ours on the log — already owns
// the name) so in-memory state, the caller's error, and the next replay all
// agree the registration never happened.
func (l *Library) undoUnacked(name string, ve *VideoEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.pendingAck, name)
	if l.videos[name] != ve {
		return
	}
	// The record never survived on the log, so there is nothing to report
	// dead to the compaction trigger.
	delete(l.logBytes, name)
	l.removeLocked(name)
}

// replace installs a mined result under name, superseding any existing
// registration — an upsert: absent names register fresh. On a durable
// library the whole mutation is one wal.RecordReplace record, so replay
// can never observe the delete without the re-add. Replay itself reuses
// this method (the journal is not attached yet, so nothing is re-logged).
// check, when non-nil, runs on the existing entry under the write lock and
// can veto the replacement before anything is logged (the policy gate of
// ReplaceResultAs/ReplaceVideoAsCtx).
func (l *Library) replace(ctx context.Context, name string, res *Result, subcluster string, check func(*VideoEntry) error) error {
	sp := trace.StartSpan(ctx, "replace")
	defer sp.End()
	if sp != nil {
		ctx = trace.With(ctx, sp) // nest the wal.append span under "replace"
	}
	rec, err := l.encodeJournalRecord(wal.RecordReplace, name, res, subcluster)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ve, replacing := l.videos[name]
	if replacing && check != nil {
		if err := check(ve); err != nil {
			return err
		}
	}
	newEntries := res.IndexEntries(subcluster)
	// When the victim is the only registered video, its dimensionality
	// leaves with it — validate against an unconstrained library, exactly
	// as the equivalent delete-then-add would.
	baseDim := l.featDim
	if replacing && len(l.videos) == 1 {
		baseDim = 0
	}
	dim, err := l.checkEntryDims(name, newEntries, baseDim)
	if err != nil {
		return err
	}
	if rec != nil && l.journal != nil {
		if err := l.journal.AppendCtx(ctx, rec); err != nil {
			return fmt.Errorf("classminer: journaling replacement of %q: %w", name, err)
		}
	}
	// removeLocked's empty-library branch drops the serving index and
	// fences stale builds — right for a delete, wrong mid-replace: a
	// successor is about to be installed, and the replace contract is
	// that the old index keeps serving until the next BuildIndex. The
	// exception is a replacement that changes the feature dimensionality
	// (possible only when the victim was the sole video): the old index
	// answers queries of the *old* width, and serving it against the
	// library's new width would panic projection deep in Search — there
	// the index stays down, exactly as a delete leaves it.
	oldIx, oldIxVer, oldDim := l.ix, l.ixVer, l.featDim
	l.removeLocked(name) // consumes the superseded record's on-log size
	if l.ix == nil && oldIx != nil && dim == oldDim {
		l.ix, l.ixVer = oldIx, oldIxVer
	}
	if rec != nil && l.journal != nil {
		l.setLogSizeLocked(name, int64(len(rec))+wal.FrameOverhead)
	}
	l.installLocked(name, res, subcluster, newEntries, dim)
	if replacing {
		l.met.replacements.Inc()
	} else {
		l.met.registrations.Inc()
	}
	return nil
}

// visibleTo returns the lifecycle guard DeleteVideoAs and the *As replace
// variants share: it vetoes mutating a video whose subcluster the policy
// hides from u. It runs under l.mu, so the verdict and the mutation are
// one atomic step.
func (l *Library) visibleTo(u User) func(*VideoEntry) error {
	return func(ve *VideoEntry) error {
		n := l.hierarchy.Find(ve.Subcluster)
		if n == nil || !l.policy.Allowed(u, n.Path()) {
			return fmt.Errorf("%w: subcluster %q", ErrForbidden, ve.Subcluster)
		}
		return nil
	}
}

// checkEntryDims validates that every new entry matches dim (0 = the
// library constrains nothing and the entries establish it), returning the
// dimension to install. Validation runs before any journaling or mutation:
// a registration that would fail must never reach the log.
func (l *Library) checkEntryDims(name string, newEntries []*index.Entry, dim int) (int, error) {
	for _, e := range newEntries {
		d := len(e.Shot.Color) + len(e.Shot.Texture)
		if dim == 0 {
			dim = d
		}
		if d != dim {
			return 0, fmt.Errorf("classminer: video %q shot has %d feature dims, library has %d",
				name, d, dim)
		}
	}
	return dim, nil
}

// installLocked commits a validated registration to in-memory state:
// feature rows are appended to the flat matrix (once per shot, so index
// rebuilds never re-extract them) and the entry set and generation advance.
// When the serving index was current, the new entries are inserted into it
// incrementally (copy-on-write, no refit) so the registration is
// searchable the moment the caller is acknowledged; otherwise — or when an
// entry's concept path has no leaf in the built tree — the index is left
// stale for the coalesced rebuilder. Callers hold l.mu.
func (l *Library) installLocked(name string, res *Result, subcluster string, newEntries []*index.Entry, dim int) {
	l.featDim = dim
	for _, e := range newEntries {
		l.featData = append(l.featData, e.Shot.Color...)
		l.featData = append(l.featData, e.Shot.Texture...)
	}
	l.videos[name] = &VideoEntry{Result: res, Subcluster: subcluster}
	l.entries = append(l.entries, newEntries...)
	wasCurrent := l.ix != nil && l.ixVer == l.entriesVer
	l.entriesVer++
	l.gen++
	if !wasCurrent {
		return
	}
	ix := l.ix
	for _, e := range newEntries {
		nix, err := ix.Insert(e)
		if err != nil {
			// A brand-new concept (or any other incremental limit): keep the
			// pre-mutation index serving and flag staleness instead.
			return
		}
		ix = nix
	}
	l.ix = ix
	l.ixVer = l.entriesVer
	l.met.ixInserts.Add(uint64(len(newEntries)))
}

// removeLocked unregisters name, if present, and compacts the entry list
// and flat feature matrix. Both are rebuilt into *fresh* backing arrays,
// never edited in place: BuildIndex snapshots alias the old arrays
// (capacity-capped slices), and a concurrent search against the installed
// index must keep reading consistent rows until the next swap. When the
// serving index was current, the deleted entries are masked out of it
// incrementally (copy-on-write) so searches stop ranking them immediately;
// the generation bump invalidates response caches either way. Callers hold
// l.mu.
func (l *Library) removeLocked(name string) bool {
	if _, ok := l.videos[name]; !ok {
		return false
	}
	delete(l.videos, name)
	kept := make([]*index.Entry, 0, len(l.entries))
	var data []float64
	if l.featDim > 0 {
		data = make([]float64, 0, len(l.entries)*l.featDim)
	}
	for i, e := range l.entries {
		if e.VideoName == name {
			continue
		}
		kept = append(kept, e)
		if l.featDim > 0 {
			data = append(data, l.featData[i*l.featDim:(i+1)*l.featDim]...)
		}
	}
	wasCurrent := l.ix != nil && l.ixVer == l.entriesVer
	removed := len(l.entries) - len(kept)
	l.entries = kept
	l.featData = data
	empty := len(l.entries) == 0
	if empty && len(l.pendingAck) == 0 {
		// Nothing left to index: drop the installed index now rather than
		// serve a library of ghosts until a BuildIndex that would error,
		// and forget the feature dimensionality — it was learned from the
		// registrations just removed, and an empty library constrains
		// nothing (the next registration re-establishes it). An in-flight
		// unacknowledged registration still pins the dimensionality: its
		// entries validated against it and are about to install.
		l.ix = nil
		l.featDim = 0
		l.featData = nil
	} else if empty {
		l.ix = nil
	}
	l.entriesVer++
	l.gen++
	l.lastRemoveVer = l.entriesVer
	switch {
	case empty:
		// Fence out in-flight builds: a BuildIndex snapshotted before this
		// delete would otherwise reinstall an index of the just-deleted
		// entries — permanently, since BuildIndex on an empty library only
		// errors. (lastRemoveVer already discards them; the ixVer fence
		// keeps IndexStale reporting sane.)
		l.ixVer = l.entriesVer
	case wasCurrent:
		nix, _ := l.ix.Remove(name)
		l.ix = nix
		l.ixVer = l.entriesVer
		l.met.ixRemoves.Add(uint64(removed))
	}
	if n := l.logBytes[name]; n > 0 {
		delete(l.logBytes, name)
		if l.deadNote != nil {
			l.deadNote(1, n)
		}
	}
	return true
}

// remove is removeLocked under the lock (the tombstone-replay path).
func (l *Library) remove(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.removeLocked(name)
}

// setLogSizeLocked records name's journal-record footprint on the live
// log. Callers hold l.mu.
func (l *Library) setLogSizeLocked(name string, n int64) {
	if l.logBytes == nil {
		l.logBytes = map[string]int64{}
	}
	l.logBytes[name] = n
}

// setLogSize is setLogSizeLocked under the lock (the replay path, where
// records enter the library without passing through Append).
func (l *Library) setLogSize(name string, n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.setLogSizeLocked(name, n)
}

// encodeJournalRecord serialises a register/replace record for the
// write-ahead log, or returns nil when the library is not durable. The
// envelope payload is the JSON of a store.SavedLibraryEntry — the same
// shape a snapshot holds per video — so snapshot load and log replay share
// one decode path.
func (l *Library) encodeJournalRecord(kind, name string, res *Result, subcluster string) ([]byte, error) {
	l.mu.RLock()
	durable := l.journal != nil
	l.mu.RUnlock()
	if !durable {
		return nil, nil
	}
	saved, err := store.EncodeResult(res)
	if err != nil {
		return nil, fmt.Errorf("classminer: encoding journal record: %w", err)
	}
	entry, err := json.Marshal(store.SavedLibraryEntry{Subcluster: subcluster, Result: saved})
	if err != nil {
		return nil, fmt.Errorf("classminer: encoding journal record: %w", err)
	}
	return wal.EncodeRecord(kind, name, entry)
}

// encodeTombstone serialises a delete record, or returns nil when the
// library is not durable.
func (l *Library) encodeTombstone(name string) ([]byte, error) {
	l.mu.RLock()
	durable := l.journal != nil
	l.mu.RUnlock()
	if !durable {
		return nil, nil
	}
	return wal.EncodeRecord(wal.RecordTombstone, name, nil)
}

// DeleteVideo unregisters a video: its entries leave the library, the flat
// feature matrix is compacted, and the generation advances so cached
// answers stop being served. The installed index keeps serving until the
// next BuildIndex (copy-on-write, exactly like registration: at worst
// slightly stale, never blocking). On a durable library the tombstone is
// journaled before any state changes — replay applies it even over a
// registration recovered from a checkpoint snapshot, so delete wins across
// a crash — and the superseded registration's log footprint is reported to
// the engine, feeding the sealed-segment compaction trigger.
func (l *Library) DeleteVideo(name string) error {
	return l.deleteVideo(context.Background(), name, nil)
}

// DeleteVideoAs is DeleteVideo gated by the library's access policy: the
// user must be allowed to see the video's subcluster, and the check runs
// under the same critical section as the removal — a concurrent
// replacement can never move the video behind a policy wall between the
// check and the delete. It returns an error wrapping ErrForbidden when
// policy denies the user.
func (l *Library) DeleteVideoAs(u User, name string) error {
	return l.deleteVideo(context.Background(), name, l.visibleTo(u))
}

// DeleteVideoAsCtx is DeleteVideoAs with tracing: a traced request records
// the delete and its WAL tombstone append as child spans.
func (l *Library) DeleteVideoAsCtx(ctx context.Context, u User, name string) error {
	return l.deleteVideo(ctx, name, l.visibleTo(u))
}

// deleteVideo journals and applies a tombstone; check, when non-nil, runs
// on the entry under the write lock and can veto the delete before
// anything is logged.
func (l *Library) deleteVideo(ctx context.Context, name string, check func(*VideoEntry) error) error {
	sp := trace.StartSpan(ctx, "delete")
	defer sp.End()
	if sp != nil {
		ctx = trace.With(ctx, sp) // nest the wal.append span under "delete"
	}
	rec, err := l.encodeTombstone(name)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ve, ok := l.videos[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVideo, name)
	}
	if check != nil {
		if err := check(ve); err != nil {
			return err
		}
	}
	if rec != nil && l.journal != nil {
		if err := l.journal.AppendCtx(ctx, rec); err != nil {
			return fmt.Errorf("classminer: journaling tombstone for %q: %w", name, err)
		}
	}
	l.removeLocked(name)
	l.met.deletes.Inc()
	return nil
}

// ReplaceResult installs an already-mined result under its video name,
// superseding any existing registration (an upsert: absent names register
// fresh). This is the re-ingest path of a living archive — a clinician
// re-records a procedure and the new cut supersedes the old. The index is
// left stale; call BuildIndex afterwards. On a durable library the whole
// replacement is a single journal record, atomic across crashes.
func (l *Library) ReplaceResult(res *Result, subcluster string) error {
	if res == nil || res.Video == nil {
		return fmt.Errorf("classminer: nil result")
	}
	if err := l.checkSubcluster(subcluster); err != nil {
		return err
	}
	return l.replace(context.Background(), res.Video.Name, res, subcluster, nil)
}

// ReplaceResultAs is ReplaceResult gated by the library's access policy:
// superseding a registration destroys it just as surely as DeleteVideo
// does, so the user must be allowed to see the *existing* video's
// subcluster, checked atomically with the swap (ErrForbidden otherwise).
// Absent names register fresh with no gate — there is nothing to destroy.
func (l *Library) ReplaceResultAs(u User, res *Result, subcluster string) error {
	return l.ReplaceResultAsCtx(context.Background(), u, res, subcluster)
}

// ReplaceResultAsCtx is ReplaceResultAs with tracing (see AddVideoCtx).
func (l *Library) ReplaceResultAsCtx(ctx context.Context, u User, res *Result, subcluster string) error {
	if res == nil || res.Video == nil {
		return fmt.Errorf("classminer: nil result")
	}
	if err := l.checkSubcluster(subcluster); err != nil {
		return err
	}
	return l.replace(ctx, res.Video.Name, res, subcluster, l.visibleTo(u))
}

// ReplaceVideoAsCtx mines a video and installs it under its name,
// superseding any existing registration, with ReplaceResultAs's atomic
// policy gate on that registration. Mining runs outside the lock, like
// AddVideoCtx.
func (l *Library) ReplaceVideoAsCtx(ctx context.Context, u User, v *Video, subcluster string) (*Result, error) {
	if err := l.checkSubcluster(subcluster); err != nil {
		return nil, err
	}
	sp := trace.StartSpan(ctx, "mine")
	res, err := l.analyzer.Analyze(v)
	sp.End()
	if err != nil {
		return nil, err
	}
	return res, l.replace(ctx, v.Name, res, subcluster, l.visibleTo(u))
}

// BuildIndex (re)builds the hierarchical index over all registered videos
// — the full fit that resets the incremental overlay's staleness. The fit
// runs outside the lock against a snapshot of the entries, so concurrent
// searches keep answering from the previous index until the new one is
// swapped in, and registrations that land *while* the fit runs are caught
// up by inserting them incrementally into the fresh fit before the swap —
// a rebuild is never discarded just because ingest outpaced it. Only a
// removal racing the fit discards it (the entry arrays were compacted
// under it); the caller — typically the coalesced rebuilder — simply
// retries. Concurrent builds are safe: an older fit never overwrites a
// newer one.
func (l *Library) BuildIndex() error {
	return l.BuildIndexCtx(context.Background())
}

// BuildIndexCtx is BuildIndex with tracing: when ctx carries a trace span
// (the rebuilder traces every rebuild), the out-of-lock matrix fit and the
// under-lock catch-up-and-swap each record a child span — the split that
// matters when a rebuild stalls queries (only "swap" runs under the write
// lock).
func (l *Library) BuildIndexCtx(ctx context.Context) error {
	sp := trace.SpanFrom(ctx)
	l.mu.RLock()
	entries := l.entries[:len(l.entries):len(l.entries)]
	// Snapshot the precomputed feature matrix alongside: the capacity-capped
	// view stays valid even if later registrations grow featData, rows past
	// the snapshot are never written concurrently, and a delete or
	// replacement rebuilds both slices into fresh backing arrays
	// (removeLocked) rather than editing the ones this snapshot aliases.
	flen := len(entries) * l.featDim
	feats := &mat.Dense{R: len(entries), C: l.featDim, Data: l.featData[:flen:flen]}
	ver := l.entriesVer
	l.mu.RUnlock()
	if len(entries) == 0 {
		return fmt.Errorf("classminer: no videos registered")
	}
	fit := sp.Start("fit")
	fit.SetInt("entries", int64(len(entries)))
	ix, err := index.BuildMatrix(entries, feats, index.Options{})
	fit.End()
	if err != nil {
		return err
	}
	swap := sp.Start("swap") // includes the write-lock wait
	defer swap.End()
	l.mu.Lock()
	defer l.mu.Unlock()
	if ver < l.ixFitVer {
		return nil // a newer fit already landed; keep it
	}
	if l.lastRemoveVer > ver {
		// A delete or replacement compacted the entry arrays after this fit
		// snapshotted them: the fit describes rows that no longer line up
		// with the library. Discard it; staleness stays flagged and the
		// rebuilder retries against the compacted arrays.
		return nil
	}
	// No removal ran, so l.entries is the snapshot's own backing array,
	// possibly grown: everything past the snapshot is a registration to
	// catch up on.
	caughtUp := true
	for _, e := range l.entries[len(entries):] {
		nix, ierr := ix.Insert(e)
		if ierr != nil {
			caughtUp = false // new concept mid-fit: install the fit, stay stale
			break
		}
		ix = nix
	}
	l.ix = ix
	l.ixFitVer = ver
	if caughtUp {
		l.ixVer = l.entriesVer
	} else {
		l.ixVer = ver
	}
	l.gen++
	return nil
}

// IndexStaleness reports the serving index's incremental-overlay fraction:
// how much of it (entries inserted or masked since the last full fit,
// relative to that fit's size) is approximation on top of the fitted
// structure. 0 means freshly fit or no index; the rebuild budget compares
// against it.
func (l *Library) IndexStaleness() float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.ix == nil {
		return 0
	}
	return l.ix.Staleness()
}

// RebuildNeeded reports whether a full index rebuild is warranted: there is
// something to index and either no current index serves (a mutation the
// incremental path could not absorb, or none was ever built) or the
// incremental overlay has outgrown the staleness budget. The serving
// layer's coalesced rebuilder polls this instead of rebuilding per
// mutation.
func (l *Library) RebuildNeeded(budget float64) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if len(l.entries) == 0 {
		return false
	}
	if l.ix == nil || l.entriesVer != l.ixVer {
		return true
	}
	return l.ix.Staleness() > budget
}

// IndexStale reports whether videos were registered after the installed
// index was built (searches then answer from the older snapshot).
func (l *Library) IndexStale() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix == nil || l.entriesVer != l.ixVer
}

// LibraryStats is a point-in-time snapshot of a library's size and index
// state, the payload of the daemon's /v1/stats endpoint.
type LibraryStats struct {
	Videos       int  `json:"videos"`
	Shots        int  `json:"shots"`
	IndexedShots int  `json:"indexedShots"`
	IndexStale   bool `json:"indexStale"`
	// IndexStaleness is the serving index's incremental-overlay fraction
	// (inserted+removed since the last full fit, relative to that fit);
	// the rebuild budget is compared against it.
	IndexStaleness float64 `json:"indexStaleness"`
	Generation     int64   `json:"generation"`
	// WAL is the durable log's lag since its last checkpoint; nil when the
	// library is not durable.
	WAL *WALStats `json:"wal,omitempty"`
}

// Stats returns a consistent snapshot of the library's counters.
func (l *Library) Stats() LibraryStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	st := LibraryStats{
		Videos:     len(l.videos),
		Shots:      len(l.entries),
		IndexStale: l.ix == nil || l.entriesVer != l.ixVer,
		Generation: l.gen,
	}
	if l.ix != nil {
		st.IndexedShots = l.ix.Size()
		st.IndexStaleness = l.ix.Staleness()
	}
	if l.journal != nil {
		ws := l.journal.Stats()
		st.WAL = &ws
	}
	return st
}

// Allowed reports whether the user may access the given concept path under
// the library's current policy. The serving layer uses it to gate browsing
// endpoints with the same rules that filter search results.
func (l *Library) Allowed(u User, path []string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.policy.Allowed(u, path)
}

// HasSubcluster reports whether name is a valid placement target for
// AddVideo / AddResult (a subcluster-level concept).
func (l *Library) HasSubcluster(name string) bool {
	return l.checkSubcluster(name) == nil
}

// ConceptPath returns the root-exclusive hierarchy path of a concept (e.g.
// ["medical education", "medicine"] for "medicine"), or nil when unknown.
// It is the single source of the path shape policy rules match against.
func (l *Library) ConceptPath(name string) []string {
	n := l.hierarchy.Find(name)
	if n == nil {
		return nil
	}
	return n.Path()
}

// Video returns a registered video's entry, or nil.
func (l *Library) Video(name string) *VideoEntry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.videos[name]
}

// VideoNames lists the registered videos in sorted order.
func (l *Library) VideoNames() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	names := make([]string, 0, len(l.videos))
	for name := range l.videos {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Size returns the number of indexed shots.
func (l *Library) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Search runs a query-by-example over the library as the given user: the
// hierarchical index finds the k nearest shots and the access-control
// policy filters what the user may see. The §6.2 cost statistics of the
// index traversal are returned alongside.
func (l *Library) Search(u User, query []float64, k int) ([]SearchHit, SearchStats, error) {
	return l.SearchInto(nil, u, query, k)
}

// SearchInto is Search writing its ranked, policy-filtered hits into dst
// (grown only when capacity is insufficient). A caller that reuses one
// buffer — the serving layer pools them per request — makes the whole
// query path allocation-free. The returned slice aliases dst.
func (l *Library) SearchInto(dst []SearchHit, u User, query []float64, k int) ([]SearchHit, SearchStats, error) {
	return l.SearchIntoCtx(context.Background(), dst, u, query, k)
}

// SearchIntoCtx is SearchInto with tracing: when ctx carries a trace span,
// the index stages (project/scan/rank — see Index.SearchIntoSpans) and the
// policy filter record child spans under one "search" span. Untraced and
// unsampled callers pay nothing — the span lookup on a bare context is a
// nil value read, keeping the zero-alloc query contract.
func (l *Library) SearchIntoCtx(ctx context.Context, dst []SearchHit, u User, query []float64, k int) ([]SearchHit, SearchStats, error) {
	sp := trace.StartSpan(ctx, "search")
	defer sp.End()
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.ix == nil {
		return nil, SearchStats{}, fmt.Errorf("classminer: index not built (call BuildIndex)")
	}
	hits, stats := l.ix.SearchIntoSpans(dst, query, k, sp)
	fsp := sp.Start("filter")
	hits = access.FilterInPlace(l.policy, u, hits, func(h SearchHit) []string { return h.Entry.Path })
	fsp.End()
	return hits, stats, nil
}

// SearchBatch answers many query-by-example searches in one call: the index
// fans the queries out across cores and the access-control policy filters
// each answer for the user. hits[i] and stats[i] correspond to queries[i].
func (l *Library) SearchBatch(u User, queries [][]float64, k int) ([][]SearchHit, []SearchStats, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.ix == nil {
		return nil, nil, fmt.Errorf("classminer: index not built (call BuildIndex)")
	}
	hits, stats := l.ix.SearchBatch(queries, k)
	for i := range hits {
		hits[i] = access.Filter(l.policy, u, hits[i], func(h SearchHit) []string { return h.Entry.Path })
	}
	return hits, stats, nil
}

// SceneRef names one scene of one registered video.
type SceneRef struct {
	VideoName string
	Scene     *Scene
}

// ScenesByEvent answers queries like "show me all patient–doctor dialogs
// within the library": every mined scene of the category the user is
// allowed to see.
func (l *Library) ScenesByEvent(u User, kind EventKind) []SceneRef {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []SceneRef
	for name, ve := range l.videos {
		leaf := concept.SceneConcept(ve.Subcluster, kind)
		path := append(l.hierarchy.Find(ve.Subcluster).Path(), leaf)
		if !l.policy.Allowed(u, path) {
			continue
		}
		for _, sc := range ve.Result.Scenes {
			if sc.Event == kind {
				out = append(out, SceneRef{VideoName: name, Scene: sc})
			}
		}
	}
	return out
}

// Save serialises every mined video's metadata (not the media) to w. The
// saved library can be reloaded with LoadLibrary without re-mining.
//
// Only the registration set is snapshotted under the lock; the heavy
// encoding runs outside it (registered Results are immutable), so a
// checkpoint of a large library never stalls searches behind a pending
// writer. The WAL ordering contract survives: the lock acquisition still
// observes every journaled registration, and anything registered later is
// on the log past the checkpoint's cut point anyway.
func (l *Library) Save(w io.Writer) error {
	l.mu.RLock()
	names := make([]string, 0, len(l.videos))
	for name := range l.videos {
		names = append(names, name)
	}
	sort.Strings(names)
	ves := make([]*VideoEntry, len(names))
	pend := make(map[string]wal.Commit, len(l.pendingAck))
	for i, name := range names {
		ves[i] = l.videos[name]
		if c, ok := l.pendingAck[name]; ok {
			pend[name] = c
		}
	}
	l.mu.RUnlock()
	entries := make([]store.SavedLibraryEntry, 0, len(names))
	for i, name := range names {
		if c, ok := pend[name]; ok {
			// The registration is installed but its group commit has not
			// resolved. Wait it out (outside the lock — this can even lead
			// the flush): on success the record is durable and belongs in
			// the snapshot; on failure it was clawed back and the install
			// is being compensated, so the snapshot must not resurrect it.
			if c.Wait() != nil {
				continue
			}
		}
		saved, err := store.EncodeResult(ves[i].Result)
		if err != nil {
			return fmt.Errorf("classminer: saving %q: %w", name, err)
		}
		entries = append(entries, store.SavedLibraryEntry{Subcluster: ves[i].Subcluster, Result: saved})
	}
	return store.WriteLibrary(w, entries)
}

// LoadLibrary reconstructs a library from a stream written by Save and
// rebuilds its index. The analyzer is kept for future AddVideo calls; the
// loaded videos carry mined metadata only (no frames or audio).
func LoadLibrary(r io.Reader, a *Analyzer) (*Library, error) {
	l := NewLibrary(a)
	n, err := l.ImportSnapshot(r, false)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		if err := l.BuildIndex(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Recover opens (creating if needed) a durable library rooted at dir: it
// loads the newest checkpoint snapshot, replays the write-ahead log tail
// over it, and attaches the journal so every subsequent registration is
// durable before it is visible. A crashed process therefore restarts with
// exactly the registrations it acknowledged (under SyncAlways; see
// DurableOptions.Sync for the weaker modes).
//
// The recovered index is left stale — call BuildIndex once before serving
// searches. Close the library when done to release the engine.
func Recover(dir string, a *Analyzer, opts DurableOptions) (*Library, error) {
	eng, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	l := NewLibrary(a)
	ok := false
	defer func() {
		if !ok {
			eng.Close()
		}
	}()
	if snap := eng.SnapshotPath(); snap != "" {
		f, err := os.Open(snap)
		if err != nil {
			return nil, fmt.Errorf("classminer: opening snapshot: %w", err)
		}
		_, err = l.ImportSnapshot(f, false)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("classminer: snapshot %s: %w", snap, err)
		}
	}
	// Dead log discovered during replay (a tombstone or replacement whose
	// victim is also on the log) is accumulated locally and handed to the
	// engine once it is attached, so a recovered-but-never-compacted data
	// directory can trigger compaction without waiting for fresh deletes.
	var replayDeadRecs, replayDeadBytes int64
	l.mu.Lock()
	l.deadNote = func(records, bytes int64) {
		replayDeadRecs += records
		replayDeadBytes += bytes
	}
	l.mu.Unlock()
	// Replay reuses one scratch Record and one scratch SavedLibraryEntry
	// across the whole log tail — the per-record work is the decode, and a
	// 10k-record recovery should not also pay 10k envelope re-parses and
	// scratch allocations.
	var rec wal.Record
	var sv store.SavedLibraryEntry
	err = eng.Replay(func(payload []byte) error {
		if err := wal.DecodeRecordInto(&rec, payload); err != nil {
			return fmt.Errorf("classminer: %w", err)
		}
		size := int64(len(payload)) + wal.FrameOverhead
		if rec.Type == wal.RecordTombstone {
			// Delete wins over a straddling checkpointed registration (the
			// video is in the snapshot, its tombstone on the log tail);
			// unknown names are fine — the tombstone itself may straddle a
			// checkpoint that already dropped the video.
			l.remove(rec.Key)
			return nil
		}
		sv = store.SavedLibraryEntry{}
		if err := json.Unmarshal(rec.Payload, &sv); err != nil {
			return fmt.Errorf("classminer: decoding journal record: %w", err)
		}
		res, err := store.DecodeResult(sv.Result)
		if err != nil {
			return fmt.Errorf("classminer: decoding journal record: %w", err)
		}
		name := res.Video.Name
		if rec.Type == wal.RecordReplace {
			if err := l.replace(context.Background(), name, res, sv.Subcluster, nil); err != nil {
				return err
			}
		} else {
			err := l.register(context.Background(), name, res, sv.Subcluster)
			if err != nil && !errors.Is(err, ErrDuplicateVideo) {
				// A duplicate straddles the last checkpoint: it is both in
				// the snapshot and on the log tail, and the snapshot copy
				// won. Anything else is real.
				return err
			}
		}
		// Either way the record is on the live log; a later delete or
		// replacement makes its bytes reclaimable.
		l.setLogSize(name, size)
		return nil
	})
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.journal = eng
	l.deadNote = eng.NoteDead
	l.mu.Unlock()
	eng.SetSource(l.checkpointSource)
	if replayDeadRecs > 0 {
		eng.NoteDead(replayDeadRecs, replayDeadBytes)
	}
	if eng.ReplayDamaged() {
		// The log chain is broken mid-way: records past the damage (and any
		// future appends, which land after them) would be unreachable by
		// the next replay. A checkpoint heals it — the fresh snapshot holds
		// everything just recovered, and the broken segments are pruned.
		if err := eng.Checkpoint(); err != nil {
			return nil, fmt.Errorf("classminer: checkpointing past damaged log: %w", err)
		}
	}
	ok = true
	return l, nil
}

// ImportSnapshot registers every video of a library snapshot (a stream
// written by Save) into l, reporting how many were added. With
// skipExisting, names the library already holds are skipped — the
// one-shot-migration semantics of classminerd's -load — otherwise a
// duplicate is an error. Placement concepts are validated like any other
// registration, and on a durable library every import is journaled. The
// index is left stale; call BuildIndex afterwards.
func (l *Library) ImportSnapshot(r io.Reader, skipExisting bool) (int, error) {
	saved, err := store.ReadLibrary(r)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, sv := range saved.Videos {
		res, err := store.DecodeResult(sv.Result)
		if err != nil {
			return n, err
		}
		if skipExisting && l.Video(res.Video.Name) != nil {
			continue
		}
		if err := l.checkSubcluster(sv.Subcluster); err != nil {
			return n, err
		}
		if err := l.register(context.Background(), res.Video.Name, res, sv.Subcluster); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Engine exposes the library's write-ahead-log engine, or nil when the
// library is not durable. Replication (internal/repl) ships, pins and seeds
// the engine's log directly; every other caller should stay behind the
// Library API.
func (l *Library) Engine() *wal.Engine {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.journal
}

// ApplyRecord applies one replicated log record through the same mutation
// paths the leader used — a follower's index is built by the identical
// incremental Insert/Remove sequence, and the record is journaled into this
// library's own log, so an applying follower is itself durable,
// crash-recoverable, and promotable. Application is idempotent, which is
// what makes re-apply after a crash mid-batch safe: a register whose name
// already exists is a no-op (the first apply won and replay-skip semantics
// say the incumbent stays), a tombstone for an unknown name is a no-op, and
// a replace is an upsert either way. Legacy bare frames arrive as version-0
// registrations, exactly as replay treats them.
func (l *Library) ApplyRecord(ctx context.Context, rec *wal.Record) error {
	switch rec.Type {
	case wal.RecordTombstone:
		if err := l.deleteVideo(ctx, rec.Key, nil); err != nil && !errors.Is(err, ErrUnknownVideo) {
			return err
		}
		return nil
	case wal.RecordRegister, wal.RecordReplace:
		var sv store.SavedLibraryEntry
		if err := json.Unmarshal(rec.Payload, &sv); err != nil {
			return fmt.Errorf("classminer: decoding replicated record: %w", err)
		}
		res, err := store.DecodeResult(sv.Result)
		if err != nil {
			return fmt.Errorf("classminer: decoding replicated record: %w", err)
		}
		if err := l.checkSubcluster(sv.Subcluster); err != nil {
			return err
		}
		if rec.Type == wal.RecordReplace {
			return l.replace(ctx, res.Video.Name, res, sv.Subcluster, nil)
		}
		if err := l.register(ctx, res.Video.Name, res, sv.Subcluster); err != nil && !errors.Is(err, ErrDuplicateVideo) {
			return err
		}
		return nil
	default:
		return fmt.Errorf("classminer: unknown replicated record type %q", rec.Type)
	}
}

// ReseedFromSnapshot converges the library onto a leader checkpoint
// snapshot without wiping: videos absent from the snapshot are tombstoned,
// every snapshot entry is applied as a replacement (an upsert, so entries
// whose content drifted are refreshed too), and all of it flows through the
// normal journaled mutation paths, making the reseed itself crash-safe and
// re-runnable. This is the follower's fallback when its cursor falls behind
// the leader's compaction horizon: the snapshot plus the log tail after it
// is exactly the leader's state. r may be nil — a leader that has never
// checkpointed has an empty snapshot, and the whole history arrives via the
// log instead. Reports how many videos were installed and removed.
func (l *Library) ReseedFromSnapshot(ctx context.Context, r io.Reader) (installed, removed int, err error) {
	var entries []store.SavedLibraryEntry
	if r != nil {
		saved, err := store.ReadLibrary(r)
		if err != nil {
			return 0, 0, err
		}
		entries = saved.Videos
	}
	keep := make(map[string]bool, len(entries))
	for _, sv := range entries {
		if sv.Result != nil {
			keep[sv.Result.VideoName] = true
		}
	}
	for _, name := range l.VideoNames() {
		if keep[name] {
			continue
		}
		if derr := l.deleteVideo(ctx, name, nil); derr != nil && !errors.Is(derr, ErrUnknownVideo) {
			return installed, removed, derr
		}
		removed++
	}
	for _, sv := range entries {
		res, derr := store.DecodeResult(sv.Result)
		if derr != nil {
			return installed, removed, derr
		}
		if derr := l.checkSubcluster(sv.Subcluster); derr != nil {
			return installed, removed, derr
		}
		if derr := l.replace(ctx, res.Video.Name, res, sv.Subcluster, nil); derr != nil {
			return installed, removed, derr
		}
		installed++
	}
	return installed, removed, nil
}

// Durable reports whether registrations are write-ahead logged (the
// library came from Recover).
func (l *Library) Durable() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.journal != nil
}

// checkpointSource is the snapshot writer the engine's checkpoints call.
// It is Save plus bookkeeping: once the snapshot is cut, the log records
// it covers are about to be pruned, so their per-name footprints are
// forgotten — a later delete of a checkpointed video costs the log nothing
// (only its tombstone is appended). Registrations that straddle the
// checkpoint lose their entry too, a deliberate undercount: the dead-bytes
// counter is a compaction trigger, and Compact recomputes exact deadness
// from the log itself.
func (l *Library) checkpointSource(w io.Writer) error {
	if err := l.Save(w); err != nil {
		return err
	}
	l.mu.Lock()
	l.logBytes = nil
	l.mu.Unlock()
	return nil
}

// Checkpoint folds the write-ahead log into a fresh snapshot and prunes
// the superseded segments, bounding the next recovery's replay. The
// background checkpointer calls this when the configured lag thresholds
// trip; the daemon's admin endpoint calls it on demand. It is an error on
// a non-durable library.
func (l *Library) Checkpoint() error {
	l.mu.RLock()
	eng := l.journal
	l.mu.RUnlock()
	if eng == nil {
		return fmt.Errorf("classminer: library is not durable")
	}
	return eng.Checkpoint()
}

// Compact rewrites the write-ahead log's sealed segments, dropping
// registrations a later delete or replacement superseded, so recovery
// replays (and checkpoints rewrite) only the live set. The background
// compactor calls this when the dead-bytes threshold trips
// (DurableOptions.CompactBytes); the daemon's admin endpoint calls it on
// demand. It is an error on a non-durable library.
func (l *Library) Compact() (CompactStats, error) {
	l.mu.RLock()
	eng := l.journal
	l.mu.RUnlock()
	if eng == nil {
		return CompactStats{}, fmt.Errorf("classminer: library is not durable")
	}
	return eng.Compact()
}

// WALStats reports the durable log's lag since its last checkpoint. ok is
// false when the library is not durable.
func (l *Library) WALStats() (WALStats, bool) {
	l.mu.RLock()
	eng := l.journal
	l.mu.RUnlock()
	if eng == nil {
		return WALStats{}, false
	}
	return eng.Stats(), true
}

// Close releases the durable engine (final fsync included). It is a no-op
// on a non-durable library; the library must not register videos after.
func (l *Library) Close() error {
	l.mu.RLock()
	eng := l.journal
	l.mu.RUnlock()
	if eng == nil {
		return nil
	}
	return eng.Close()
}
