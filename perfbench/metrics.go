package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the benchmark reads. The name and
// unit of every metric live there only; the Go side keeps what each
// per-layer metric is expected to move (targets) and which ungated
// end-to-end figures each workload reports (workloadE2E), and loadSpec
// fails when the two sides name different metrics.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// workloadE2E are the end-to-end figures that carry no bound, by workload:
// those only one workload can measure, search_p99_ms (whose run-to-run
// spread is wider than any bound the benchmark may set, see README.md) and
// the by-example and raw-vector halves of search_p50_ms. They are
// per_layer entries of BENCHMARK.json; each --trace 0 run prints them on
// "# e2e" lines and the --trace 1 result carries them (0 where a workload
// has none).
var workloadE2E = map[string][]string{
	"search":     {"search_p99_ms", "search_example_p50_ms", "search_raw_p50_ms", "search_max_rps", "batch_p50_ms"},
	"ingest-raw": {"search_p99_ms", "search_example_p50_ms", "search_raw_p50_ms", "raw_ingest_vpm", "raw_ingest_done_p50_s"},
	"write-mix":  {"search_p99_ms", "search_example_p50_ms", "search_raw_p50_ms", "write_ack_p50_ms", "write_ack_p99_ms", "disk_bytes_per_video", "repl_catchup_s"},
}

// targets names, for every per_layer metric, the e2e metric and workload
// it is expected to move.
var targets = map[string]string{
	"search_p99_ms":         "e2e, all workloads (unbounded: spread)",
	"search_example_p50_ms": "e2e, all workloads (by-example part of search_p50_ms)",
	"search_raw_p50_ms":     "e2e, all workloads (raw-vector part of search_p50_ms)",
	"search_max_rps":        "e2e @search",
	"batch_p50_ms":          "e2e @search",
	"raw_ingest_vpm":        "e2e @ingest-raw",
	"raw_ingest_done_p50_s": "e2e @ingest-raw",
	"write_ack_p50_ms":      "e2e @write-mix",
	"write_ack_p99_ms":      "e2e @write-mix",
	"disk_bytes_per_video":  "e2e @write-mix",
	"repl_catchup_s":        "e2e @write-mix",

	"server.search.self_us.p50":       "search_p50_ms @search",
	"server.batch.self_us.p50":        "batch_p50_ms @search",
	"server.resp_bytes_per_search":    "search_p50_ms @search",
	"server.cache.hit_ratio":          "search_p50_ms @search",
	"server.cache.lookups":            "base of server.cache.hit_ratio",
	"server.ingest.queue_wait_ms.p50": "raw_ingest_done_p50_s @ingest-raw",
	"server.ingest.self_ms.p50":       "write_ack_p50_ms @write-mix",
	"server.rebuilds":                 "search_p99_ms @write-mix,@ingest-raw",
	"server.rebuild_ms.sum":           "search_p99_ms @write-mix,@ingest-raw",
	"admit.wait_ms.p99":               "search_p99_ms @search (sweep top)",
	"admit.rejected":                  "failure share, all workloads",

	"classminer.search_us.p50":       "search_p50_ms @search",
	"classminer.search_us.p99":       "search_p99_ms @search",
	"classminer.search_batch_ms.p50": "batch_p50_ms @search",
	"classminer.add_result_ms.p50":   "write_ack_p50_ms @write-mix",
	"classminer.add_result_ms.p99":   "write_ack_p99_ms @write-mix",
	"classminer.replace_ms.p50":      "write_ack_p50_ms @write-mix",
	"classminer.delete_ms.p50":       "write_ack_p50_ms @write-mix",
	"classminer.add_video_s.p50":     "raw_ingest_done_p50_s @ingest-raw",
	"classminer.recover_s":           "setup_s, all workloads",

	"index.search_us.p50":          "search_p50_ms @search",
	"index.distance_ops_per_query": "search_p50_ms @search",
	"index.candidates_per_query":   "search_p50_ms @search",
	"index.example_recall":         "answer quality @search (beam misses of the example)",
	"index.example_queries":        "base of index.example_recall",
	"index.build_s":                "setup_s @search",
	"index.insert_us.p50":          "write_ack_p50_ms @write-mix",
	"index.remove_us.p50":          "write_ack_p50_ms @write-mix",

	"store.encode_ms.p50":    "write_ack_p50_ms @write-mix, repl_catchup_s",
	"store.decode_ms.p50":    "setup_s @search, write_ack_p50_ms @write-mix",
	"store.bytes_per_record": "disk_bytes_per_video @write-mix",

	"wal.append_us.p50":       "write_ack_p50_ms @write-mix",
	"wal.fsync_ms.p50":        "write_ack_p99_ms @write-mix",
	"wal.records_per_fsync":   "write_ack_p99_ms @write-mix",
	"wal.replay_s":            "setup_s @search",
	"wal.checkpoints":         "search_p99_ms, write_ack_p99_ms @write-mix",
	"wal.checkpoint_ms.p50":   "search_p99_ms, write_ack_p99_ms @write-mix",
	"wal.compactions":         "search_p99_ms, write_ack_p99_ms @write-mix",
	"wal.compact_ms.sum":      "search_p99_ms, write_ack_p99_ms @write-mix",
	"wal.bytes_per_user_byte": "disk_bytes_per_video @write-mix",

	"repl.ship_bytes":      "repl_catchup_s @write-mix",
	"repl.applied_records": "repl_catchup_s @write-mix",
	"repl.reseeds":         "repl_catchup_s @write-mix",

	"synth.generate_s.p50":    "corpus-ingest fixture cost @ingest-raw",
	"core.analyze_s.p50":      "raw_ingest_vpm, raw_ingest_done_p50_s @ingest-raw",
	"shotdet.detect_ms.p50":   "raw_ingest_vpm @ingest-raw",
	"structure.groups_ms.p50": "raw_ingest_vpm @ingest-raw",
	"structure.scenes_ms.p50": "raw_ingest_vpm @ingest-raw",
	"cluster.scenes_ms.p50":   "raw_ingest_vpm @ingest-raw",
	"event.mine_ms.p50":       "raw_ingest_vpm @ingest-raw",
	"skim.build_ms.p50":       "raw_ingest_vpm @ingest-raw",

	"runtime.alloc_bytes_per_op": "search_p99_ms @search, rss_mb",
	"runtime.gc_cycles_per_kop":  "search_p99_ms @search, rss_mb",
	"loadgen.late_ms.p99":        "generator health (open-loop workloads)",
	"loadgen.job_polls":          "generator load on the daemon (ingest-raw, write-mix)",
	"trace.overhead_pct":         "traced in-process vs untraced daemon headline metric",
}

// loadSpec reads BENCHMARK.json from the checkout root and checks it names
// the same metrics as targets and workloadE2E.
func loadSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var missing []string
	named := map[string]bool{}
	for _, m := range s.PerLayer {
		named[m.Name] = true
		if _, ok := targets[m.Name]; !ok {
			missing = append(missing, m.Name+" (no target)")
		}
	}
	for name := range targets {
		if !named[name] {
			missing = append(missing, name+" (not in BENCHMARK.json per_layer)")
		}
	}
	for _, names := range workloadE2E {
		for _, name := range names {
			if !named[name] {
				missing = append(missing, name+" (workload e2e not in per_layer)")
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("BENCHMARK.json and the benchmark disagree on metrics: %v", missing)
	}
	return &s, nil
}

// unitOf returns the unit BENCHMARK.json gives a metric.
func (s *spec) unitOf(name string) string {
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m.Unit
		}
	}
	return ""
}

// report returns measured metric name in BENCHMARK.json's unit (0 when the
// run has no such figure); a measured unit other than the spec's is an
// error, so the two cannot drift apart.
func (s *spec) report(name string, measured map[string]metric) (metric, error) {
	unit := s.unitOf(name)
	v, ok := measured[name]
	if !ok {
		return metric{0, unit}, nil
	}
	if v.Unit != unit {
		return metric{}, fmt.Errorf("metric %s measured in %q, BENCHMARK.json says %q", name, v.Unit, unit)
	}
	return v, nil
}
