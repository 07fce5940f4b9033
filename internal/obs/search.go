package obs

// SearchSnapshot is one live engine-introspection sample: what a
// running exact search looks like right now. It is the only snapshot
// type — the exact engines build it directly (solve.ExactProgress is an
// alias), the anytime orchestrator stamps Seq, and the service, proxy,
// CLI and JSONL sinks share its JSON schema. Fields an engine cannot
// observe are zero, and f-valued fields use -1 for "none".
type SearchSnapshot struct {
	// Seq numbers the snapshots of one solve (strictly increasing).
	Seq int `json:"seq"`
	// Engine names the engine that produced the sample: astar (serial
	// A*, the anytime refinement engine) or ida-star.
	Engine string `json:"engine"`
	// ElapsedMS is the wall time since the engine started, in
	// fractional milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Expanded is the cumulative state-expansion count.
	Expanded int64 `json:"expanded"`
	// Rate is the expansion rate (states/s) over the sampling window.
	Rate float64 `json:"expansion_rate"`
	// Pushed / Distinct are open-list insertions and distinct states.
	Pushed   int64 `json:"pushed,omitempty"`
	Distinct int64 `json:"distinct,omitempty"`
	// LowerBound is the certified scaled lower bound proven so far.
	LowerBound int64 `json:"lower_bound"`
	// FrontierSize is the total open-list length; FrontierF/FrontierG
	// the cheapest open entry's priority and path cost (-1: none).
	FrontierSize int64 `json:"frontier_size"`
	FrontierF    int64 `json:"frontier_f"`
	FrontierG    int64 `json:"frontier_g"`
	// OpenBuckets is the open queue's per-f histogram (serial engine).
	OpenBuckets []SearchBucket `json:"open_buckets,omitempty"`
	// TableStates/TableBytes/TableLoad describe the visited-state
	// tables (count, backing bytes, probe load factor).
	TableStates int64   `json:"table_states"`
	TableBytes  int64   `json:"table_bytes"`
	TableLoad   float64 `json:"table_load,omitempty"`
	// Threshold and Pass track the IDA* threshold schedule.
	Threshold int64 `json:"threshold,omitempty"`
	Pass      int   `json:"pass,omitempty"`
}

// SearchBucket is one f-level of the open queue.
type SearchBucket struct {
	F     int64 `json:"f"`
	Count int   `json:"count"`
}
