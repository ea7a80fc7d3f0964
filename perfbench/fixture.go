package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"classminer"
	"classminer/internal/store"
	"classminer/internal/synth"
)

// baseSeed fixes the five mined corpus videos every library is fanned out
// from. Mining them costs ~17 s of CPU, so they are mined once per build of
// the benchmark and cached; the workload seed drives everything derived
// from them (fan-out jitter, query stream, op schedule, raw-ingest
// (corpus, seed) pairs).
const baseSeed = 2003

// jitter is the relative amplitude applied to nonzero colour bins and to
// texture when fanning a base video out into library copies.
const jitter = 0.05

// subcluster is the concept every benchmark video is filed under.
const subcluster = "medicine"

// mineBase returns the five corpus scripts mined at scale 1, from the cache
// under work when present. The cache file is named after a hash of this
// benchmark's own executable, which links the synth, core, store and
// classminer packages of the checkout: a checkout whose mining or store
// encoding differs builds a different executable and mines afresh, so a
// cache left behind by another commit is never read.
func mineBase(work string) ([]*store.SavedResult, error) {
	key, err := selfHash()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(work, fmt.Sprintf("base-%d-%s.json", baseSeed, key))
	if b, err := os.ReadFile(path); err == nil {
		var out []*store.SavedResult
		if err := json.Unmarshal(b, &out); err == nil && len(out) == len(synth.CorpusNames()) {
			return out, nil
		}
	}
	a, err := classminer.NewAnalyzer(classminer.Options{})
	if err != nil {
		return nil, err
	}
	names := synth.CorpusNames()
	out := make([]*store.SavedResult, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			v, err := synth.Generate(synth.DefaultConfig(), synth.CorpusScript(name, 1, baseSeed), baseSeed)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := a.Analyze(v)
			if err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = store.EncodeResult(res)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	// Caches of other builds are stale from now on.
	stale, _ := filepath.Glob(filepath.Join(work, fmt.Sprintf("base-%d-*.json", baseSeed)))
	for _, p := range stale {
		os.Remove(p)
	}
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return out, os.Rename(tmp, path)
}

// selfHash is a short SHA-256 of the running executable.
func selfHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// fanOut makes n library videos from the base set. Copy i of base video b
// keeps b's mined structure and jitters only its nonzero colour bins and
// its texture, so the ~94% zero-bin sparsity and record size stay those of
// a real mined video while no two shots in the library coincide.
func fanOut(base []*store.SavedResult, n int, prefix string, rng *rand.Rand) []*store.SavedResult {
	out := make([]*store.SavedResult, n)
	for i := range out {
		b := base[i%len(base)]
		c := *b
		c.VideoName = fmt.Sprintf("%s-%s-%04d", prefix, b.VideoName, i)
		c.Shots = make([]store.SavedShot, len(b.Shots))
		for j, s := range b.Shots {
			s.Color = jitterBins(s.Color, rng)
			tex := make([]float64, len(s.Texture))
			for k, t := range s.Texture {
				tex[k] = t * (1 + jitter*(2*rng.Float64()-1))
			}
			s.Texture = tex
			c.Shots[j] = s
		}
		out[i] = &c
	}
	return out
}

// jitterBins perturbs the nonzero bins of a histogram and renormalises it
// to its original mass; zero bins stay zero.
func jitterBins(h []float64, rng *rand.Rand) []float64 {
	out := make([]float64, len(h))
	var before, after float64
	for i, x := range h {
		before += x
		if x != 0 {
			out[i] = x * (1 + jitter*(2*rng.Float64()-1))
			after += out[i]
		}
	}
	if after > 0 {
		for i := range out {
			out[i] *= before / after
		}
	}
	return out
}

// fixtureFacts describes a fanned-out library for the run report.
type fixtureFacts struct {
	Videos       int     `json:"videos"`
	Shots        int     `json:"shots"`
	RecordBytes  float64 `json:"recordBytesMean"`
	ZeroBinShare float64 `json:"zeroBinShare"`
	Jitter       float64 `json:"jitter"`
}

func describe(lib []*store.SavedResult, payloads [][]byte) fixtureFacts {
	f := fixtureFacts{Videos: len(lib), Jitter: jitter}
	var zero, bins, bytes int
	for i, v := range lib {
		f.Shots += len(v.Shots)
		bytes += len(payloads[i])
		for _, s := range v.Shots {
			for _, x := range s.Color {
				bins++
				if x == 0 {
					zero++
				}
			}
		}
	}
	if len(lib) > 0 {
		f.RecordBytes = float64(bytes) / float64(len(lib))
	}
	if bins > 0 {
		f.ZeroBinShare = float64(zero) / float64(bins)
	}
	return f
}

// ingestBody renders a saved-ingest request for one video.
func ingestBody(v *store.SavedResult) ([]byte, error) {
	return json.Marshal(map[string]any{"subcluster": subcluster, "saved": v})
}

// prepareDataDir fills a fresh data directory through the daemon's own
// saved ingest: the first half is checkpointed, the second half stays
// WAL-only, then the daemon is SIGKILLed so every boot from this directory
// is a crash recovery (snapshot load plus log replay).
func prepareDataDir(env *env, dir string, videos []*store.SavedResult) error {
	d, err := startDaemon(env, dir, nil)
	if err != nil {
		return err
	}
	defer d.kill()
	if err := d.waitReady(60 * time.Second); err != nil {
		return err
	}
	c := newClient(d.url)
	half := len(videos) / 2
	ingest := func(part []*store.SavedResult) error {
		errs := make(chan error, 2)
		for w := 0; w < 2; w++ {
			go func(w int) {
				for i := w; i < len(part); i += 2 {
					body, err := ingestBody(part[i])
					if err == nil {
						err = c.ingestWait(body, 2*time.Millisecond)
					}
					if err != nil {
						errs <- fmt.Errorf("preparing %s: %w", part[i].VideoName, err)
						return
					}
				}
				errs <- nil
			}(w)
		}
		return errors.Join(<-errs, <-errs)
	}
	if err := ingest(videos[:half]); err != nil {
		return err
	}
	if _, err := c.do("POST", "/v1/admin/checkpoint", nil); err != nil {
		return err
	}
	if err := ingest(videos[half:]); err != nil {
		return err
	}
	d.kill()
	return nil
}

// copyTree copies a data directory (regular files, one level of
// subdirectories deep at most) so each daemon boot starts from a pristine
// copy of the prepared fixture.
func copyTree(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, info.Mode().Perm())
	})
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

// feature is a shot's 266-dim search descriptor (colour then texture).
func feature(s store.SavedShot) []float64 {
	out := make([]float64, 0, len(s.Color)+len(s.Texture))
	return append(append(out, s.Color...), s.Texture...)
}

// jitterQuery makes a raw query vector near a library shot that no other
// query in the run repeats.
func jitterQuery(s store.SavedShot, rng *rand.Rand) []float64 {
	q := feature(s)
	for i, x := range q {
		if x != 0 {
			q[i] = x * (1 + 2*jitter*(2*rng.Float64()-1))
		}
	}
	return q
}

// zipf draws ranks 0..n-1 with P(rank r) ∝ 1/(r+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
