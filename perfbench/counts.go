package main

// serverCounts turns the daemon's own /metrics, scraped before and after
// the measured phase, into per-layer work counts. Every count here is
// produced by the program, not by benchmark tracing.
func (w *world) serverCounts(before, after metricSet) {
	d := func(name string, match ...string) float64 {
		return after.sum(name, match...) - before.sum(name, match...)
	}
	searches := d("http_requests_total", `route="/v1/search"`)
	if searches > 0 {
		w.putLayer("server.resp_bytes_per_search", d("http_response_bytes_total", `route="/v1/search"`)/searches, "B")
	}
	hits, misses := d("search_cache_hits_total"), d("search_cache_misses_total")
	w.putLayer("server.cache.lookups", hits+misses, "count")
	if hits+misses > 0 {
		w.putLayer("server.cache.hit_ratio", hits/(hits+misses), "ratio")
	}
	w.putLayer("server.rebuilds", d("index_rebuilds_total"), "count")
	w.putLayer("admit.wait_ms.p99", 1000*histQuantile(histDelta(before, after, "admit_wait_seconds"), 0.99), "ms")
	w.putLayer("admit.rejected", d("admit_rejected_total"), "count")

	w.putLayer("wal.fsync_ms.p50", 1000*histQuantile(histDelta(before, after, "wal_fsync_duration_seconds"), 0.5), "ms")
	if syncs := d("wal_syncs_total"); syncs > 0 {
		w.putLayer("wal.records_per_fsync", d("wal_appends_total")/syncs, "records")
	}
	w.putLayer("wal.checkpoints", d("wal_checkpoints_total"), "count")
	w.putLayer("wal.checkpoint_ms.p50", 1000*histQuantile(histDelta(before, after, "wal_checkpoint_duration_seconds"), 0.5), "ms")
	w.putLayer("wal.compact_ms.sum", 1000*(after.sum("wal_compact_duration_seconds_sum")-before.sum("wal_compact_duration_seconds_sum")), "ms")
	w.putLayer("wal.compactions", d("wal_compact_duration_seconds_count"), "count")
	// The in-process server of the traced run exports no Go runtime
	// series, so these come from the daemon alone. The daemon samples its
	// runtime counters at most once a second. An op is any HTTP request
	// the daemon served in the phase, job polls included.
	if reqs := d("http_requests_total"); reqs > 0 && !w.traced {
		w.putLayer("runtime.alloc_bytes_per_op", d("go_memstats_alloc_bytes_total")/reqs, "B")
		w.putLayer("runtime.gc_cycles_per_kop", 1000*d("go_gc_cycles_total")/reqs, "count")
	}
}

// replCounts reports the replication layer's work from a follower catch-up.
func (w *world) replCounts(leaderBefore, leaderAfter, follower metricSet) {
	w.putLayer("repl.ship_bytes", leaderAfter.sum("repl_ship_bytes_total")-leaderBefore.sum("repl_ship_bytes_total"), "B")
	w.putLayer("repl.applied_records", follower.sum("repl_follower_applied_total"), "count")
	w.putLayer("repl.reseeds", follower.sum("repl_follower_reseeds_total"), "count")
}

// recall reports the share of by-example answers that contain the example
// itself (the index's beam-search recall on self-queries), with its base.
func (w *world) recall() {
	w.putLayer("index.example_queries", float64(w.examples), "count")
	if w.examples > 0 {
		w.putLayer("index.example_recall", float64(w.exampleHits)/float64(w.examples), "ratio")
	}
}
