package experiments

import (
	"testing"
)

func TestMultilevelExperiment(t *testing.T) {
	rep := Multilevel()
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for i := range rep.Rows {
		two := cellInt(t, rep, i, "2-level cost")
		three := cellInt(t, rep, i, "3-level cost")
		if three > two {
			t.Fatalf("row %d: middle level made things worse (%d > %d)", i, three, two)
		}
		fast := cellInt(t, rep, i, "L0<->L1")
		deep := cellInt(t, rep, i, "L1<->L2")
		if deep > fast {
			t.Fatalf("row %d: deep link busier than fast link", i)
		}
	}
}

func TestAllParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	seq := All()
	par := AllParallel()
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].ID != par[i].ID {
			t.Fatalf("order differs at %d: %s vs %s", i, seq[i].ID, par[i].ID)
		}
		if len(seq[i].Rows) != len(par[i].Rows) {
			t.Fatalf("%s: row counts differ", seq[i].ID)
		}
		for r := range seq[i].Rows {
			for c := range seq[i].Rows[r] {
				// Ablation E measures anytime solves under wall-clock
				// deadlines: how far the certified interval converges
				// (lower, gap, optimal, source — every column past the
				// deadline) depends on scheduler timing. Only the
				// workload and deadline labels are deterministic.
				if seq[i].ID == "Ablation E" && c >= 2 {
					continue
				}
				if seq[i].Rows[r][c] != par[i].Rows[r][c] {
					t.Fatalf("%s row %d col %d: %q vs %q — experiments are not deterministic",
						seq[i].ID, r, c, seq[i].Rows[r][c], par[i].Rows[r][c])
				}
			}
		}
	}
}

func BenchmarkAllParallelSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports := AllParallel()
		if len(reports) == 0 {
			b.Fatal("no reports")
		}
	}
}
