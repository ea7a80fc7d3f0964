package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"classminer/internal/store"
)

func TestValidate(t *testing.T) {
	follower := config{role: "follower", dataDir: "data", leaderURL: "http://leader:8471"}
	with := func(c config, edit func(*config)) config { edit(&c); return c }
	cases := []struct {
		name    string
		cfg     config
		wantErr string // empty: must be accepted
	}{
		{"plain leader", config{role: "leader"}, ""},
		{"durable leader with bootstrap and load", config{role: "leader", dataDir: "data", bootstrap: "all", load: "lib.json"}, ""},
		{"follower", follower, ""},
		{"follower with bootstrap", with(follower, func(c *config) { c.bootstrap = "laparoscopy" }), "-bootstrap"},
		{"follower with load", with(follower, func(c *config) { c.load = "lib.json" }), "-load"},
		{"unknown role", config{role: "primary"}, `unknown -role "primary"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(tc.cfg)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("validate rejected a valid config: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("validate accepted a config it must reject (want error mentioning %q)", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// A data dir written by the old -shards mode must fail boot before anything
// is created in it: opening it as a plain dir would serve an empty library.
func TestBuildLibraryRefusesShardedDataDir(t *testing.T) {
	cases := []struct {
		name string
		cfg  config
	}{
		{"leader", config{role: "leader"}},
		{"leader with bootstrap", config{role: "leader", bootstrap: "laparoscopy", scale: 0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "SHARDS"), []byte(`{"shards":2}`), 0o644); err != nil {
				t.Fatal(err)
			}
			tc.cfg.dataDir = dir
			lib, err := buildLibrary(log.New(io.Discard, "", 0), nil, tc.cfg, nil)
			if err == nil {
				lib.Close()
				t.Fatal("buildLibrary opened a sharded data dir")
			}
			for _, want := range []string{"SHARDS", "-save", "-load", "Upgrading a -shards data dir"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			for _, pattern := range []string{"wal-*.log", "LOCK", "MANIFEST", "shard-*"} {
				if m, _ := filepath.Glob(filepath.Join(dir, pattern)); len(m) > 0 {
					t.Errorf("refused boot still created %v", m)
				}
			}
		})
	}
}

// -load still reads a JSON snapshot an earlier release's -save wrote, and
// migrates it into a data dir that then recovers on its own.
func TestLoadJSONSnapshot(t *testing.T) {
	lib := store.SavedLibrary{Version: store.FormatVersion}
	for i := 0; i < 3; i++ {
		lib.Videos = append(lib.Videos, store.SavedLibraryEntry{Subcluster: "medicine", Result: &store.SavedResult{
			Version: store.FormatVersion, VideoName: fmt.Sprintf("old-%d", i), FPS: 25, TotalFrames: 100,
			Shots: []store.SavedShot{
				{Index: 0, End: 49, Color: []float64{float64(i), 0, 1}, Texture: []float64{0.5}},
				{Index: 1, Start: 50, End: 99, RepFrame: 50, Color: []float64{0, 2, 0}, Texture: []float64{0.25}},
			},
			Groups: []store.SavedGroup{{Shots: []int{0, 1}, RepShots: []int{0}}},
			Scenes: []store.SavedScene{{Groups: []int{0}}},
		}})
	}
	path := filepath.Join(t.TempDir(), "old.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(f).Encode(lib); err != nil {
		t.Fatal(err)
	}
	f.Close()

	quiet := log.New(io.Discard, "", 0)
	cfg := config{role: "leader", dataDir: t.TempDir(), load: path, fsync: "off"}
	loaded, err := buildLibrary(quiet, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Stats().Videos; got != 3 {
		t.Fatalf("loaded %d videos, want 3", got)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.load = ""
	recovered, err := buildLibrary(quiet, nil, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for _, v := range lib.Videos {
		if recovered.Video(v.Result.VideoName) == nil {
			t.Fatalf("%s lost across recovery of the migrated dir", v.Result.VideoName)
		}
	}
}
