package classminer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"classminer/internal/store"
	"classminer/internal/synth"
	"classminer/internal/wal"
)

// tinyResult fabricates a small mined result (a few shots in one group and
// scene) with deterministic pseudo-random features. It goes through the
// same SavedResult decode path a journal replay uses, so recovered and
// reference libraries are built from identical inputs without paying for
// the mining pipeline 10k times over.
func tinyResult(t testing.TB, name string, seed int64, shots int) *Result {
	t.Helper()
	res, err := store.DecodeResult(tinySaved(name, seed, shots))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func tinySaved(name string, seed int64, shots int) *store.SavedResult {
	rng := rand.New(rand.NewSource(seed))
	sr := &store.SavedResult{
		Version:     store.FormatVersion,
		VideoName:   name,
		FPS:         25,
		TotalFrames: shots * 50,
	}
	feat := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	group := store.SavedGroup{Index: 0}
	for i := 0; i < shots; i++ {
		sr.Shots = append(sr.Shots, store.SavedShot{
			Index: i, Start: i * 50, End: (i+1)*50 - 1, RepFrame: i * 50,
			Color: feat(8), Texture: feat(4),
		})
		group.Shots = append(group.Shots, i)
	}
	group.RepShots = []int{0}
	sr.Groups = []store.SavedGroup{group}
	sr.Scenes = []store.SavedScene{{Index: 0, Groups: []int{0}, RepGroup: 0}}
	return sr
}

// quietWAL keeps recovery tests silent and auto-checkpointing out of the
// way unless a test opts in.
func quietWAL() DurableOptions {
	return DurableOptions{CheckpointBytes: -1, CheckpointRecords: -1}
}

func searchAll(t testing.TB, l *Library, queries [][]float64, k int) [][]SearchHit {
	t.Helper()
	u := User{Name: "admin", Clearance: Administrator}
	out := make([][]SearchHit, len(queries))
	for i, q := range queries {
		hits, _, err := l.Search(u, q, k)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = hits
	}
	return out
}

func mustSameHits(t testing.TB, got, want [][]SearchHit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("answered %d queries, want %d", len(got), len(want))
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("query %d: %d hits vs %d", qi, len(got[qi]), len(want[qi]))
		}
		for hi := range want[qi] {
			g, w := got[qi][hi], want[qi][hi]
			if g.Entry.VideoName != w.Entry.VideoName || g.Entry.Shot.Index != w.Entry.Shot.Index || g.Dist != w.Dist {
				t.Fatalf("query %d hit %d: (%s,%d,%g) vs (%s,%d,%g)", qi, hi,
					g.Entry.VideoName, g.Entry.Shot.Index, g.Dist,
					w.Entry.VideoName, w.Entry.Shot.Index, w.Dist)
			}
		}
	}
}

// fixedQueries derives a deterministic query set from the libraries' own
// feature space.
func fixedQueries(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.Float64()
		}
		out[i] = q
	}
	return out
}

// TestRecoverEquivalence is the snapshot+replay equivalence check: a
// durable library abandoned without any shutdown save must recover to
// answer exactly like an in-memory reference library that registered the
// same results. Exercises both the WAL-only boot (no checkpoint ever) and
// the snapshot+tail layout (checkpoint mid-stream).
func TestRecoverEquivalence(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"wal-only", "checkpoint+tail"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			durable, err := Recover(dir, a, quietWAL())
			if err != nil {
				t.Fatal(err)
			}
			reference := NewLibrary(a)
			const videos = 12
			for i := 0; i < videos; i++ {
				name := fmt.Sprintf("vid-%03d", i)
				if err := durable.AddResult(tinyResult(t, name, int64(i), 3+i%4), "medicine"); err != nil {
					t.Fatal(err)
				}
				if err := reference.AddResult(tinyResult(t, name, int64(i), 3+i%4), "medicine"); err != nil {
					t.Fatal(err)
				}
				if mode == "checkpoint+tail" && i == videos/2 {
					if err := durable.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Crash: no shutdown save, no checkpoint. Close here only
			// releases the data-dir lock the way process death would —
			// under SyncAlways it writes nothing, so the on-disk state is
			// byte-identical to a SIGKILL and everything must come back
			// from the data dir alone.
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}

			recovered, err := Recover(dir, a, quietWAL())
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			if got, want := recovered.Stats().Videos, reference.Stats().Videos; got != want {
				t.Fatalf("recovered %d videos, want %d", got, want)
			}
			if err := recovered.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			if err := reference.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			queries := fixedQueries(10, 12, 99)
			mustSameHits(t, searchAll(t, recovered, queries, 5), searchAll(t, reference, queries, 5))
		})
	}
}

// TestRecoverDeleteReplaceEquivalence drives random interleavings of
// add/delete/replace through a durable library and an in-memory reference,
// checkpoints somewhere in the middle of the stream, crashes, and demands
// the recovered library answer exactly like the reference — the lifecycle
// analogue of TestRecoverEquivalence. Register records that straddle the
// checkpoint must dedupe, and tombstone/replace records that straddle it
// must win over the snapshot copy.
func TestRecoverDeleteReplaceEquivalence(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			opts := quietWAL()
			opts.SegmentBytes = 4 << 10 // several segments per run
			durable, err := Recover(dir, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			reference := NewLibrary(a)

			var names []string
			next := 0
			const ops = 60
			ckptAt := 20 + rng.Intn(20)
			for op := 0; op < ops; op++ {
				switch {
				case len(names) == 0 || rng.Float64() < 0.5:
					name := fmt.Sprintf("vid-%03d", next)
					next++
					res := int64(next)
					if err := durable.AddResult(tinyResult(t, name, res, 2+rng.Intn(3)), "medicine"); err != nil {
						t.Fatal(err)
					}
					if err := reference.AddResult(tinyResult(t, name, res, len(durable.Video(name).Result.Shots)), "medicine"); err != nil {
						t.Fatal(err)
					}
					names = append(names, name)
				case rng.Float64() < 0.5:
					victim := rng.Intn(len(names))
					name := names[victim]
					if err := durable.DeleteVideo(name); err != nil {
						t.Fatal(err)
					}
					if err := reference.DeleteVideo(name); err != nil {
						t.Fatal(err)
					}
					names = append(names[:victim], names[victim+1:]...)
				default:
					name := names[rng.Intn(len(names))]
					res := int64(1000 + op)
					shots := 2 + rng.Intn(3)
					if err := durable.ReplaceResult(tinyResult(t, name, res, shots), "medicine"); err != nil {
						t.Fatal(err)
					}
					if err := reference.ReplaceResult(tinyResult(t, name, res, shots), "medicine"); err != nil {
						t.Fatal(err)
					}
				}
				if op == ckptAt {
					if err := durable.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Crash without any shutdown save (see TestRecoverEquivalence).
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}

			recovered, err := Recover(dir, a, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer recovered.Close()
			gotNames, wantNames := recovered.VideoNames(), reference.VideoNames()
			if fmt.Sprint(gotNames) != fmt.Sprint(wantNames) {
				t.Fatalf("recovered videos %v, want %v", gotNames, wantNames)
			}
			for _, name := range wantNames {
				g, w := recovered.Video(name), reference.Video(name)
				if len(g.Result.Shots) != len(w.Result.Shots) {
					t.Fatalf("video %q recovered with %d shots, want %d (stale replacement?)",
						name, len(g.Result.Shots), len(w.Result.Shots))
				}
			}
			if len(wantNames) == 0 {
				return
			}
			if err := recovered.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			if err := reference.BuildIndex(); err != nil {
				t.Fatal(err)
			}
			queries := fixedQueries(8, 12, seed)
			mustSameHits(t, searchAll(t, recovered, queries, 5), searchAll(t, reference, queries, 5))
		})
	}
}

// TestRecoverTombstoneStraddlesCheckpoint pins the "delete wins" rule: a
// video registered before a checkpoint lives in the snapshot; its
// tombstone (and a replaced sibling's replace record) land on the log
// tail. Replay loads the snapshot copy and must still apply both.
func TestRecoverTombstoneStraddlesCheckpoint(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lib, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Both mutations straddle the checkpoint: victims in the snapshot,
	// records on the tail.
	if err := lib.DeleteVideo("v1"); err != nil {
		t.Fatal(err)
	}
	if err := lib.ReplaceResult(tinyResult(t, "v2", 55, 5), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if recovered.Video("v1") != nil {
		t.Fatal("tombstone lost: checkpointed registration resurrected")
	}
	if got := recovered.Stats().Videos; got != 3 {
		t.Fatalf("recovered %d videos, want 3", got)
	}
	ve := recovered.Video("v2")
	if ve == nil || len(ve.Result.Shots) != 5 {
		t.Fatalf("replace record lost: v2 = %+v", ve)
	}
}

// TestRecoverEmptyDir boots a durable library from a directory that has
// never seen a record: zero snapshots, an empty log.
func TestRecoverEmptyDir(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	lib, err := Recover(t.TempDir(), a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	if !lib.Durable() {
		t.Fatal("recovered library is not durable")
	}
	if st := lib.Stats(); st.Videos != 0 || st.WAL == nil || st.WAL.Records != 0 {
		t.Fatalf("empty-dir stats = %+v", st)
	}
	if err := lib.AddResult(tinyResult(t, "first", 1, 4), "medicine"); err != nil {
		t.Fatal(err)
	}
	if st := lib.Stats(); st.WAL.Records != 1 {
		t.Fatalf("WAL lag after one registration = %+v", st.WAL)
	}
}

// TestRecoverSkipsCheckpointStraddlers registers, checkpoints, and crashes
// without closing: the final registrations live on the log tail while
// earlier ones are in the snapshot. A record present in both (appended
// while a checkpoint snapshot was cut) must register once, not error.
func TestRecoverDuplicateTolerance(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lib, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Duplicate registration is refused and, critically, never journaled:
	// a WAL record of a failed registration would resurrect it on replay.
	if err := lib.AddResult(tinyResult(t, "v0", 0, 3), "medicine"); !errors.Is(err, ErrDuplicateVideo) {
		t.Fatalf("duplicate AddResult: %v, want ErrDuplicateVideo", err)
	}
	if err := lib.AddResult(tinyResult(t, "tail", 77, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Stats().Videos; got != 5 {
		t.Fatalf("recovered %d videos, want 5", got)
	}
	if recovered.Video("tail") == nil {
		t.Fatal("log-tail registration lost")
	}
}

// TestRecoverTornJournalTail cuts the last journal record mid-frame (the
// on-disk signature of a crash mid-append) and verifies recovery keeps
// every earlier registration and drops only the torn one.
func TestRecoverTornJournalTail(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lib, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	recovered, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := recovered.Stats().Videos; got != 2 {
		t.Fatalf("recovered %d videos, want 2 (torn third dropped)", got)
	}
	if recovered.Video("v2") != nil {
		t.Fatal("torn registration resurrected")
	}
	// The repaired log accepts the registration again.
	if err := recovered.AddResult(tinyResult(t, "v2", 2, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverHealsDamagedChain corrupts a sealed mid-chain WAL segment and
// verifies Recover checkpoints past the damage, so registrations made
// after the damaged recovery survive the *next* crash instead of being
// stranded behind the broken segment.
func TestRecoverHealsDamagedChain(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := quietWAL()
	opts.SegmentBytes = 1 << 10 // force several segments
	lib, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := lib.AddResult(tinyResult(t, fmt.Sprintf("v%d", i), int64(i), 3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := lib.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	raw[16] ^= 0x01
	if err := os.WriteFile(segs[1], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	healed, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	partial := healed.Stats().Videos
	if partial == 0 || partial >= 8 {
		t.Fatalf("damaged recovery yielded %d videos, want a strict prefix", partial)
	}
	if ws, _ := healed.WALStats(); ws.Generation == 0 {
		t.Fatal("Recover did not checkpoint past the damaged chain")
	}
	if err := healed.AddResult(tinyResult(t, "post-damage", 99, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	// Crash again (Close releases the dir lock; writes nothing — see
	// TestRecoverEquivalence).
	if err := healed.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := Recover(dir, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := again.Stats().Videos; got != partial+1 {
		t.Fatalf("second recovery has %d videos, want %d", got, partial+1)
	}
	if again.Video("post-damage") == nil {
		t.Fatal("post-damage registration stranded behind the broken segment")
	}
}

// BenchmarkRecover10k measures crash recovery of 10_000 journaled
// registrations (the ISSUE 3 acceptance bar is < 2s). Setup journals the
// registrations once with fsync off (bulk load); each iteration then
// replays the whole log into a fresh library.
func BenchmarkRecover10k(b *testing.B) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	opts := quietWAL()
	opts.Sync = SyncNever
	opts.SegmentBytes = 64 << 20
	lib, err := Recover(dir, a, opts)
	if err != nil {
		b.Fatal(err)
	}
	const n = 10_000
	for i := 0; i < n; i++ {
		if err := lib.AddResult(tinyResult(b, fmt.Sprintf("vid-%05d", i), int64(i), 2), "medicine"); err != nil {
			b.Fatal(err)
		}
	}
	if err := lib.Close(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recovered, err := Recover(dir, a, opts)
		if err != nil {
			b.Fatal(err)
		}
		if got := recovered.Stats().Videos; got != n {
			b.Fatalf("recovered %d videos, want %d", got, n)
		}
		recovered.Close()
	}
}

// TestRecoverVersion1DataDir proves a data directory the previous release
// wrote — a JSON checkpoint snapshot and version-1 JSON envelopes on the
// log — recovers byte-identically to a library that made the same changes
// directly, and keeps doing so once binary records follow the JSON ones.
func TestRecoverVersion1DataDir(t *testing.T) {
	a, err := NewAnalyzer(Options{SkipEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	eng, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, CheckpointBytes: -1, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	reference := NewLibrary(a)
	name := func(i int) string { return fmt.Sprintf("v1-%02d", i) }

	// Three videos reach a JSON checkpoint snapshot.
	var snap []store.SavedLibraryEntry
	for i := 0; i < 3; i++ {
		snap = append(snap, store.SavedLibraryEntry{Subcluster: "medicine", Result: tinySaved(name(i), int64(i), 3+i)})
		if err := reference.AddResult(tinyResult(t, name(i), int64(i), 3+i), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	eng.SetSource(func(w io.Writer) error {
		return json.NewEncoder(w).Encode(store.SavedLibrary{Version: store.FormatVersion, Videos: snap})
	})
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Register, replace and tombstone frames follow as version-1 envelopes,
	// in the byte shape that release wrote.
	v1Frame := func(kind, key string, saved *store.SavedResult) []byte {
		if saved == nil {
			return []byte(fmt.Sprintf(`{"type":%q,"version":1,"key":%q}`, kind, key))
		}
		payload, err := json.Marshal(store.SavedLibraryEntry{Subcluster: "medicine", Result: saved})
		if err != nil {
			t.Fatal(err)
		}
		return []byte(fmt.Sprintf(`{"type":%q,"version":1,"key":%q,"payload":%s}`, kind, key, payload))
	}
	for i := 3; i < 6; i++ {
		if err := eng.Append(v1Frame(wal.RecordRegister, name(i), tinySaved(name(i), int64(i), 2+i%3))); err != nil {
			t.Fatal(err)
		}
		if err := reference.AddResult(tinyResult(t, name(i), int64(i), 2+i%3), "medicine"); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Append(v1Frame(wal.RecordReplace, name(1), tinySaved(name(1), 77, 4))); err != nil {
		t.Fatal(err)
	}
	if err := reference.ReplaceResult(tinyResult(t, name(1), 77, 4), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Append(v1Frame(wal.RecordTombstone, name(4), nil)); err != nil {
		t.Fatal(err)
	}
	if err := reference.DeleteVideo(name(4)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	sameAsReference := func(l *Library, videos int) {
		t.Helper()
		if got := l.Stats().Videos; got != videos {
			t.Fatalf("recovered %d videos, want %d", got, videos)
		}
		var got, want bytes.Buffer
		if err := l.Save(&got); err != nil {
			t.Fatal(err)
		}
		if err := reference.Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatal("recovered library saves differently from the reference")
		}
		if err := l.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		if err := reference.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		queries := fixedQueries(8, 12, 5)
		mustSameHits(t, searchAll(t, l, queries, 5), searchAll(t, reference, queries, 5))
	}
	recovered, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	sameAsReference(recovered, 5)

	// A binary record now follows the JSON ones on the same log.
	if err := recovered.AddResult(tinyResult(t, "v2-06", 6, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := reference.AddResult(tinyResult(t, "v2-06", 6, 3), "medicine"); err != nil {
		t.Fatal(err)
	}
	if err := recovered.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Recover(dir, a, quietWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	sameAsReference(again, 6)
}

// BenchmarkRecoverCorpus is the realistic counterpart of
// BenchmarkRecover10k: 400 records shaped like a mined corpus video (one
// scale-0.4 laparoscopy video fanned out with jittered nonzero colour bins
// and texture, so the histograms keep their real sparsity), the first half
// checkpointed into the snapshot and the second half on the log tail.
// Each iteration recovers the whole directory; bytes/record is the data
// directory's size per record, whatever the format.
func BenchmarkRecoverCorpus(b *testing.B) {
	a, err := NewAnalyzer(Options{})
	if err != nil {
		b.Fatal(err)
	}
	v, err := synth.Generate(synth.DefaultConfig(), synth.CorpusScript("laparoscopy", 0.4, 2003), 2003)
	if err != nil {
		b.Fatal(err)
	}
	mined, err := a.Analyze(v)
	if err != nil {
		b.Fatal(err)
	}
	base, err := store.EncodeResult(mined)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	opts := quietWAL()
	opts.Sync = SyncNever
	lib, err := Recover(dir, a, opts)
	if err != nil {
		b.Fatal(err)
	}
	const n = 400
	rng := rand.New(rand.NewSource(2003))
	jitter := func(x []float64) []float64 {
		out := make([]float64, len(x))
		for i, f := range x {
			if f != 0 {
				out[i] = f * (1 + 0.1*(rng.Float64()-0.5))
			}
		}
		return out
	}
	for i := 0; i < n; i++ {
		c := *base
		c.VideoName = fmt.Sprintf("corpus-%03d", i)
		c.Shots = append([]store.SavedShot(nil), base.Shots...)
		for j := range c.Shots {
			c.Shots[j].Color = jitter(c.Shots[j].Color)
			c.Shots[j].Texture = jitter(c.Shots[j].Texture)
		}
		res, err := store.DecodeResult(&c)
		if err != nil {
			b.Fatal(err)
		}
		if err := lib.AddResult(res, "medicine"); err != nil {
			b.Fatal(err)
		}
		if i == n/2-1 {
			if err := lib.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := lib.Close(); err != nil {
		b.Fatal(err)
	}
	var size int64
	files, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range files {
		if info, err := f.Info(); err == nil && info.Mode().IsRegular() {
			size += info.Size()
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recovered, err := Recover(dir, a, opts)
		if err != nil {
			b.Fatal(err)
		}
		if got := recovered.Stats().Videos; got != n {
			b.Fatalf("recovered %d videos, want %d", got, n)
		}
		recovered.Close()
	}
	b.ReportMetric(float64(size)/n, "bytes/record")
}
