package experiments

import "testing"

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
