package obs

// SearchSnapshot is the wire form of one live engine-introspection
// sample: what a running exact search looks like right now. The solve
// layer emits its own internal snapshot type; the anytime orchestrator
// converts to this shape so the service, proxy, CLI and JSONL sinks
// share one JSON schema. Fields an engine cannot observe are zero, and
// f-valued fields use -1 for "none".
type SearchSnapshot struct {
	// Seq numbers the snapshots of one solve (strictly increasing).
	Seq int `json:"seq"`
	// Engine names the engine that produced the sample: astar,
	// async-hda, ida-star.
	Engine string `json:"engine"`
	// ElapsedMS is the wall time since the engine started.
	ElapsedMS int64 `json:"elapsed_ms"`
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
	// Workers is the per-worker breakdown (parallel engines).
	Workers []SearchWorker `json:"workers,omitempty"`
	// SafraSent/SafraRecv are the async termination protocol's global
	// proposal counters (their difference is the in-flight mass).
	SafraSent int64 `json:"safra_sent,omitempty"`
	SafraRecv int64 `json:"safra_recv,omitempty"`
	// Threshold and Pass track the IDA* threshold schedule.
	Threshold int64 `json:"threshold,omitempty"`
	Pass      int   `json:"pass,omitempty"`
}

// SearchBucket is one f-level of the open queue.
type SearchBucket struct {
	F     int64 `json:"f"`
	Count int   `json:"count"`
}

// SearchWorker is one parallel worker's slot in a SearchSnapshot.
type SearchWorker struct {
	ID           int   `json:"id"`
	Expanded     int64 `json:"expanded"`
	Pushed       int64 `json:"pushed"`
	HeapSize     int64 `json:"heap_size"`
	HeapMinF     int64 `json:"heap_min_f"`
	Floor        int64 `json:"floor"`
	MailboxDepth int64 `json:"mailbox_depth"`
	TableStates  int64 `json:"table_states"`
	TableBytes   int64 `json:"table_bytes"`
	Passive      bool  `json:"passive,omitempty"`
}
