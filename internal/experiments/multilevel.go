package experiments

import (
	"rbpebble/internal/dag"
	"rbpebble/internal/daggen"
	"rbpebble/internal/multilevel"
	"rbpebble/internal/pebble"
	"rbpebble/internal/sched"
)

// Multilevel is the extension experiment: the multi-level hierarchy
// generalization the paper's related work points to (Carpenter et al.).
// It compares a flat two-level system against a three-level hierarchy
// with the same total fast capacity on HPC workloads, reporting per-link
// traffic.
func Multilevel() *Report {
	rep := &Report{
		Claim:  "(extension) an intermediate cache level absorbs traffic from the expensive deep link; two-level red-blue is the L=2 special case",
		Header: []string{"workload", "red-blue", "2-level cost", "3-level cost", "L0<->L1", "L1<->L2"},
	}
	special, cheaper, absorbed := true, true, true
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
		_, classic, err := sched.Execute(g, pebble.NewModel(pebble.Oneshot), r, pebble.Convention{}, order, sched.Options{Policy: sched.Belady})
		if err != nil {
			panic(err)
		}
		_, two, err := multilevel.Execute(g, multilevel.Hierarchy{Limits: []int{r}, Costs: []int{10}}, order, true)
		if err != nil {
			panic(err)
		}
		_, three, err := multilevel.Execute(g, multilevel.Hierarchy{Limits: []int{r, 4 * r}, Costs: []int{1, 9}}, order, true)
		if err != nil {
			panic(err)
		}
		special = special && two.Cost == 10*classic.Cost.Transfers
		cheaper = cheaper && three.Cost <= two.Cost
		absorbed = absorbed && three.TransfersPerLink[1] <= three.TransfersPerLink[0]
		rep.Rows = append(rep.Rows, []string{
			name, itoa(classic.Cost.Transfers), itoa(two.Cost), itoa(three.Cost),
			itoa(three.TransfersPerLink[0]), itoa(three.TransfersPerLink[1]),
		})
	}
	rep.check("two levels cost 10 × the red-blue Belady cost (the L=2 special case)", special)
	rep.check("the three-level hierarchy costs no more than two levels", cheaper)
	rep.check("the deep link carries no more transfers than the near link", absorbed)
	return rep
}
