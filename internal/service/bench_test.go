package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
)

// BenchmarkBatchThroughputPyramid measures the batched request plane's
// amortization: one POST /solve/batch of 16 isomorphic pyramid(5)
// relabelings (one canonical-class solve, 16 translations) against the
// fleet shape without a batch plane — 16 sequential single POSTs, each
// to a cold node, so every request pays its own canonicalization AND
// its own exact solve. It fails unless the batch performs exactly one
// solve and amortizes at least 5x per item.
func BenchmarkBatchThroughputPyramid(b *testing.B) {
	const items = 16
	base := daggen.Pyramid(5)
	graphs := make([]*dag.DAG, items)
	graphs[0] = base
	for i := 1; i < items; i++ {
		graphs[i] = permuted(base, int64(i))
	}
	bodies := make([]string, items)
	for i, g := range graphs {
		gj, err := json.Marshal(g)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = fmt.Sprintf(`{"dag":%s,"model":"oneshot","r":4,"deadline_ms":30000}`, gj)
	}
	batchBody := fmt.Sprintf(`{"items":[%s]}`, strings.Join(bodies, ","))

	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// Batched: one server, one request, in-batch canonical dedup.
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		t0 := time.Now()
		resp, err := http.Post(ts.URL+"/solve/batch", "application/json", strings.NewReader(batchBody))
		if err != nil {
			b.Fatal(err)
		}
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		batchNs := float64(time.Since(t0).Nanoseconds())
		if resp.StatusCode != http.StatusOK || br.Summary.OK != items {
			b.Fatalf("batch failed: status %d, summary %+v", resp.StatusCode, br.Summary)
		}
		solves := int(s.m.solves.Load())
		ts.Close()
		s.Close()

		// Baseline: 16 sequential single POSTs, one cold server each —
		// no shared canonicalization, no shared solve.
		t0 = time.Now()
		for _, body := range bodies {
			s := New(Config{})
			ts := httptest.NewServer(s.Handler())
			resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var sr SolveResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !sr.Optimal {
				b.Fatalf("sequential solve failed: status %d, %+v", resp.StatusCode, sr)
			}
			ts.Close()
			s.Close()
		}
		seqNs := float64(time.Since(t0).Nanoseconds())

		perBatch, perSeq := batchNs/items, seqNs/items
		b.ReportMetric(perBatch, "ns/item-batch")
		b.ReportMetric(perSeq, "ns/item-seq")
		b.ReportMetric(perSeq/perBatch, "speedup")
		if solves != 1 {
			b.Fatalf("batch of %d isomorphic items performed %d solves, want 1", items, solves)
		}
		if perSeq < 5*perBatch {
			b.Fatalf("batch amortization %.1fx below the 5x floor (%.0f ns/item batched, %.0f sequential)",
				perSeq/perBatch, perBatch, perSeq)
		}
	}
}
