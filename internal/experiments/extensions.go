package experiments

import (
	"fmt"

	"rbpebble/internal/daggen"
	"rbpebble/internal/parpeb"
)

// ParallelPebbling is the second extension experiment: the
// multi-processor generalization (related work [8], Elango et al. SPAA
// 2014). It sweeps the processor count on the FFT butterfly and reports
// total and critical-path communication for two assignment strategies —
// the classic parallelism/communication tradeoff.
func ParallelPebbling() *Report {
	rep := &Report{
		Claim:  "(extension) assignment quality is structure-dependent; cross-edges grow with P while aggregate fast memory also grows, so total traffic can move either way; per-processor load spreads as P grows",
		Header: []string{"workload", "P", "assign", "cross-edges", "total", "max/proc"},
	}
	g := daggen.FFT(4)
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	r := 8
	local, rrBelowOne, blocksGrow, spreads := true, true, true, true
	var first, prev [2]parpeb.Result
	for i, p := range []int{1, 2, 4, 8} {
		var res [2]parpeb.Result
		for j, a := range []struct {
			name   string
			assign parpeb.Assignment
		}{
			{"round-robin", parpeb.RoundRobin(order, g.N(), p)},
			{"blocks", parpeb.Blocks(order, g.N(), p)},
		} {
			cfg := parpeb.Config{P: p, R: r, Oneshot: true}
			if _, res[j], err = parpeb.Execute(g, cfg, order, a.assign); err != nil {
				panic(err)
			}
			rep.Rows = append(rep.Rows, []string{
				fmt.Sprintf("fft(4) n=%d", g.N()), itoa(p), a.name,
				itoa(res[j].CrossEdges), itoa(res[j].Total), itoa(res[j].MaxProc),
			})
		}
		if i == 0 {
			first = res
		} else {
			local = local && res[0].CrossEdges < res[1].CrossEdges
			rrBelowOne = rrBelowOne && res[0].Total < first[0].Total
			blocksGrow = blocksGrow && res[1].Total > prev[1].Total
			spreads = spreads && res[0].MaxProc < prev[0].MaxProc && res[1].MaxProc < prev[1].MaxProc
		}
		prev = res
	}
	rep.check("round-robin has fewer cross-edges than blocks at every P > 1", local)
	rep.check("round-robin's total at every P > 1 is below its P = 1 total", rrBelowOne)
	rep.check("blocks' total grows with P", blocksGrow)
	rep.check("max/proc falls as P grows, for both assignments", spreads)
	return rep
}
