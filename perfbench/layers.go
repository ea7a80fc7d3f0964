package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"classminer/internal/audio"
	"classminer/internal/cluster"
	"classminer/internal/core"
	"classminer/internal/event"
	"classminer/internal/index"
	"classminer/internal/shotdet"
	"classminer/internal/skim"
	"classminer/internal/store"
	"classminer/internal/structure"
	"classminer/internal/synth"
	"classminer/internal/vidmodel"
	"classminer/internal/wal"
)

// directLayers calls the index, store, wal, synth and mining-stage
// packages directly on the run's own inputs and times each call.
func directLayers(w *world, workload string, layer map[string]metric) error {
	put := func(name string, v float64, unit string) { layer[name] = metric{v, unit} }
	if err := directStore(w, put); err != nil {
		return err
	}
	if err := directIndex(w, put); err != nil {
		return err
	}
	if err := directWAL(w, put); err != nil {
		return err
	}
	return directMining(w, put)
}

type putFunc func(name string, v float64, unit string)

// directStore times store.DecodeResult / EncodeResult over the fixture.
func directStore(w *world, put putFunc) error {
	var dec, enc []float64
	var bytes float64
	n := min(len(w.lib), 100)
	for i := 0; i < n; i++ {
		start := time.Now()
		res, err := store.DecodeResult(w.lib[i])
		if err != nil {
			return err
		}
		dec = append(dec, ms(time.Since(start)))
		start = time.Now()
		sr, err := store.EncodeResult(res)
		if err != nil {
			return err
		}
		b, err := json.Marshal(sr)
		if err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(start)))
		bytes += float64(len(b))
	}
	put("store.decode_ms.p50", median(dec), "ms")
	put("store.encode_ms.p50", median(enc), "ms")
	put("store.bytes_per_record", bytes/float64(n), "B")
	return nil
}

// directIndex builds the index over the fixture's entries, then times
// searches on the workload's query shapes, inserts and removes.
func directIndex(w *world, put putFunc) error {
	var entries []*index.Entry
	var spare []*index.Entry
	for i, sv := range w.lib {
		res, err := store.DecodeResult(sv)
		if err != nil {
			return err
		}
		es := res.IndexEntries(subcluster)
		if i == len(w.lib)-1 {
			spare = es // held back to time Insert
			continue
		}
		entries = append(entries, es...)
	}
	start := time.Now()
	ix, err := index.Build(entries, index.Options{})
	if err != nil {
		return err
	}
	put("index.build_s", time.Since(start).Seconds(), "s")

	q := newQueryMaker(w.shots(w.lib[:len(w.lib)-1]), w.rng)
	var lat []float64
	var ops, cands float64
	const queries = 400
	for i := 0; i < queries; i++ {
		var query []float64
		if i%3 == 2 {
			query = q.raw().Query
		} else {
			s := q.shots[q.rank[q.z.draw(q.rng)]]
			query = feature(s.feat)
		}
		start := time.Now()
		_, st := ix.Search(query, searchK)
		lat = append(lat, 1000*ms(time.Since(start)))
		ops += float64(st.DistanceOps)
		cands += float64(st.Candidates)
	}
	put("index.search_us.p50", median(lat), "us")
	put("index.distance_ops_per_query", ops/queries, "count")
	put("index.candidates_per_query", cands/queries, "count")

	var ins []float64
	for _, e := range spare {
		start := time.Now()
		nix, err := ix.Insert(e)
		if err != nil {
			return err
		}
		ins = append(ins, 1000*ms(time.Since(start)))
		ix = nix
	}
	put("index.insert_us.p50", median(ins), "us")
	var rem []float64
	for _, sv := range w.lib[:min(len(w.lib)-1, 20)] {
		start := time.Now()
		ix, _ = ix.Remove(sv.VideoName)
		rem = append(rem, 1000*ms(time.Since(start)))
	}
	put("index.remove_us.p50", median(rem), "us")
	return nil
}

// directWAL times Engine.Append under SyncAlways on the fixture's journal
// payloads, and Engine.Replay of a pristine copy of the prepared dir.
func directWAL(w *world, put putFunc) error {
	dir := filepath.Join(w.env.work, "wal-direct")
	os.RemoveAll(dir)
	defer os.RemoveAll(dir)
	e, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	var lat []float64
	for _, sv := range w.lib[:min(len(w.lib), 40)] {
		entry, err := json.Marshal(store.SavedLibraryEntry{Subcluster: subcluster, Result: sv})
		if err != nil {
			e.Close()
			return err
		}
		rec, err := wal.EncodeRecord(wal.RecordRegister, sv.VideoName, entry)
		if err != nil {
			e.Close()
			return err
		}
		start := time.Now()
		if err := e.Append(rec); err != nil {
			e.Close()
			return err
		}
		lat = append(lat, 1000*ms(time.Since(start)))
	}
	e.Close()
	put("wal.append_us.p50", median(lat), "us")

	replayDir := filepath.Join(w.env.work, "wal-replay")
	defer os.RemoveAll(replayDir)
	if err := copyTree(w.pristine, replayDir); err != nil {
		return err
	}
	start := time.Now()
	re, err := wal.Open(replayDir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	records := 0
	err = re.Replay(func([]byte) error { records++; return nil })
	re.Close()
	if err != nil {
		return err
	}
	put("wal.replay_s", time.Since(start).Seconds(), "s")
	return nil
}

// miningVideos is how many raw (corpus, seed) ingests the traced run mines
// stage by stage.
const miningVideos = 2

// directMining generates raw-ingest videos and runs core.Analyze's stages
// one by one, in its order, timing each; the stage-by-stage result must
// encode byte-identically to Analyze's.
func directMining(w *world, put putFunc) error {
	a, err := core.NewAnalyzer(core.Options{})
	if err != nil {
		return err
	}
	// The classifier core.NewAnalyzer trains internally, rebuilt from the
	// same clips and seed so the staged run can hand it to the event miner.
	speech, non := synth.TrainingClips(8000, audio.ClipSeconds, 30, 1)
	clf, err := audio.TrainSpeechClassifier(speech, non, 8000, 1)
	if err != nil {
		return err
	}
	times := map[string][]float64{}
	for _, in := range rawSequence(w.seed, miningVideos) {
		start := time.Now()
		script := synth.CorpusScript(in.corpus, rawScale, in.seed)
		v, err := synth.Generate(synth.DefaultConfig(), script, in.seed)
		if err != nil {
			return err
		}
		times["synth"] = append(times["synth"], time.Since(start).Seconds())

		start = time.Now()
		want, err := a.Analyze(v)
		if err != nil {
			return err
		}
		times["analyze"] = append(times["analyze"], time.Since(start).Seconds())

		got, err := stagedAnalyze(v, clf, times)
		if err != nil {
			return err
		}
		if !sameResult(got, want) {
			w.problem("staged mining of %s differs from core.Analyze", in.name)
		}
	}
	put("synth.generate_s.p50", median(times["synth"]), "s")
	put("core.analyze_s.p50", median(times["analyze"]), "s")
	for _, st := range []struct{ key, name string }{
		{"shotdet", "shotdet.detect_ms.p50"}, {"groups", "structure.groups_ms.p50"},
		{"scenes", "structure.scenes_ms.p50"}, {"cluster", "cluster.scenes_ms.p50"},
		{"event", "event.mine_ms.p50"}, {"skim", "skim.build_ms.p50"},
	} {
		put(st.name, 1000*median(times[st.key]), "ms")
	}
	return nil
}

// stagedAnalyze is core.Analyze with default options, one timed stage at a
// time (seconds appended to times under each stage's key).
func stagedAnalyze(v *vidmodel.Video, clf *audio.SpeechClassifier, times map[string][]float64) (*core.Result, error) {
	var opts core.Options
	res := &core.Result{Video: v}
	stage := func(key string, f func() error) error {
		start := time.Now()
		err := f()
		times[key] = append(times[key], time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		return nil
	}
	var gres *structure.GroupResult
	err := stage("shotdet", func() (err error) {
		res.Shots, res.ShotTrace, err = shotdet.Detect(v, opts.Shot)
		return err
	})
	if err == nil {
		err = stage("groups", func() (err error) {
			gres, err = structure.DetectGroups(res.Shots, opts.Group)
			if err == nil {
				res.Groups = gres.Groups
			}
			return err
		})
	}
	if err == nil {
		err = stage("scenes", func() error {
			sres, err := structure.MergeScenes(gres.Groups, opts.Scene)
			if err == nil {
				res.Scenes, res.Discarded = sres.Scenes, sres.Discarded
			}
			return err
		})
	}
	if err == nil && len(res.Scenes) > 0 {
		err = stage("cluster", func() error {
			cres, err := cluster.ClusterScenes(res.Scenes, opts.Cluster)
			if err == nil {
				res.Clusters = cres.Clusters
			}
			return err
		})
	}
	if err == nil && v.Audio != nil && len(res.Scenes) > 0 {
		err = stage("event", func() error {
			m, err := event.NewMiner(clf, event.Config{Lambda: opts.EventLambda, SampleRate: v.Audio.SampleRate})
			if err == nil {
				res.Events = m.MineAll(v, res.Scenes, res.Shots)
			}
			return err
		})
	}
	if err == nil {
		err = stage("skim", func() (err error) {
			res.Skim, err = skim.Build(res.Shots, res.Groups, res.Scenes, res.Clusters, len(v.Frames))
			return err
		})
	}
	return res, err
}

// sameResult compares two mined results through their stored encoding.
func sameResult(a, b *core.Result) bool {
	ea, err1 := store.EncodeResult(a)
	eb, err2 := store.EncodeResult(b)
	if err1 != nil || err2 != nil {
		return false
	}
	ja, _ := json.Marshal([]any{ea, a.Skim})
	jb, _ := json.Marshal([]any{eb, b.Skim})
	return string(ja) == string(jb)
}
