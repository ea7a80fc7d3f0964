// Command perfbench is classminer's repository benchmark. It builds a
// realistic library from a seed, boots the classminerd under test over
// loopback TCP, drives one named workload open-loop from a single process
// with at most two connections, checks every answer it can, and prints one
// JSON result line. With -trace 1 it also hosts server.New in-process
// behind a timing decorator and calls the index, store, wal, synth and
// mining-stage packages directly, reporting per-layer metrics.
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

var workloads = map[string]func(*world) error{
	"search":     (*world).runSearch,
	"ingest-raw": (*world).runIngestRaw,
	"write-mix":  (*world).runWriteMix,
}

// headline is the e2e metric each workload's tracing overhead is taken on.
var headline = map[string]string{
	"search":     "search_p50_ms",
	"ingest-raw": "raw_ingest_done_p50_s",
	"write-mix":  "write_ack_p50_ms",
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "search", "workload: search, ingest-raw or write-mix")
	seed := flag.Int64("seed", 1, "workload seed (same seed, same inputs)")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 adds the traced in-process run and prints per-layer metrics")
	daemonBin := flag.String("daemon", "", "classminerd binary under test")
	work := flag.String("work", ".bench_build/perfbench-work", "scratch directory (inside the checkout)")
	agree := flag.Bool("agree", false, "self-agreement mode: two run sets per workload, compared against BENCHMARK.json bounds")
	runs := flag.Int("runs", 10, "runs per set in -agree mode")
	flag.Parse()

	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *agree {
		if err := selfAgreement(sp, *runs, *seconds, *daemonBin, *work); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(sp, *daemonBin, *work, *workload, *seed, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}

func run(sp *spec, daemonBin, work, workload string, seed int64, seconds float64, traced bool) (*output, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if _, err := os.Stat(daemonBin); err != nil {
		return nil, fmt.Errorf("classminerd binary: %w", err)
	}
	runDir := filepath.Join(work, fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	e := &env{daemonBin: daemonBin, work: runDir, cache: work, start: time.Now()}
	printEnv(workload, seed, runDir)

	w := newWorld(e, seed, seconds, false)
	if err := fn(w); err != nil {
		return nil, err
	}
	out := &output{Metrics: map[string]metric{}}
	problems := w.problems
	out.Attempted, out.Failed = w.rec.totals()
	fmt.Printf("# fixture %s\n", mustJSON(w.facts))
	for _, m := range sp.EndToEnd {
		fmt.Printf("# e2e %-22s %12.6g %s (gated)\n", m.Name, w.e2e[m.Name].Value, m.Unit)
	}
	for _, m := range workloadE2E[workload] {
		fmt.Printf("# e2e %-22s %12.6g %s\n", m, w.e2e[m].Value, sp.unitOf(m))
	}
	fmt.Printf("# loadgen late_ms p50 %.4g p99 %.4g, job_polls %d\n", w.rec.lateQuantile(0.5), w.rec.lateQuantile(0.99), w.rec.polls)
	fmt.Printf("# loadgen search p50 by window %.4g ms\n", w.rec.windowQuantiles("search", 0.5))
	fmt.Printf("# index example_recall %d/%d\n", w.exampleHits, w.examples)
	for _, lm := range sp.PerLayer {
		if v, ok := w.layer[lm.Name]; ok {
			fmt.Printf("# count %-34s %14.6g %s\n", lm.Name, v.Value, v.Unit)
		}
	}
	if !traced {
		for _, m := range sp.EndToEnd {
			v, err := sp.report(m.Name, w.e2e)
			if err != nil {
				return nil, err
			}
			out.Metrics[m.Name] = v
		}
	} else {
		t := newWorld(e, seed, seconds, true)
		if err := fn(t); err != nil {
			return nil, err
		}
		t.spanStats()
		fmt.Printf("# traced index example_recall %d/%d\n", t.exampleHits, t.examples)
		layer := w.layer
		for _, m := range workloadE2E[workload] {
			if v, ok := w.e2e[m]; ok {
				layer[m] = v
			}
		}
		layer["loadgen.late_ms.p99"] = metric{w.rec.lateQuantile(0.99), "ms"}
		layer["loadgen.job_polls"] = metric{float64(w.rec.polls), "count"}
		for k, v := range t.layer {
			layer[k] = v
		}
		if err := directLayers(t, workload, layer); err != nil {
			return nil, err
		}
		problems = append(problems, t.problems...)
		h := headline[workload]
		if base := w.e2e[h].Value; base > 0 {
			layer["trace.overhead_pct"] = metric{100 * (t.e2e[h].Value - base) / base, "%"}
		}
		fmt.Printf("# traced %s: %s %.4g (untraced daemon %.4g)\n", workload, h, t.e2e[h].Value, w.e2e[h].Value)
		for _, lm := range sp.PerLayer {
			v, err := sp.report(lm.Name, layer)
			if err != nil {
				return nil, err
			}
			out.Metrics[lm.Name] = v
			fmt.Printf("# layer %-36s %14.6g %-6s -> %s\n", lm.Name, v.Value, v.Unit, targets[lm.Name])
		}
		a, f := t.rec.totals()
		out.Attempted += a
		out.Failed += f
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	out.Correct = len(problems) == 0 && out.Failed == 0
	w.logf("done")
	return out, nil
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// printEnv records the measurement conditions on a comment line.
func printEnv(workload string, seed int64, dir string) {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(line, "model name") {
				cpu = strings.TrimSpace(line[strings.IndexByte(line, ':')+1:])
				break
			}
		}
	}
	fmt.Printf("# env %s\n", mustJSON(map[string]any{
		"workload": workload, "seed": seed, "cpu": cpu, "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "dataDirFS": fsType(dir),
		"daemonFlags": strings.Join(daemonFlags(), " "), "fsync": "always",
	}))
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
