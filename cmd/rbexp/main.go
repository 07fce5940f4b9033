// Command rbexp regenerates the paper's tables and figures from the
// library's implementations and prints them as aligned text reports.
//
// Usage:
//
//	rbexp              # run every experiment
//	rbexp -parallel    # same, computed concurrently
//	rbexp -list        # list experiment IDs
//	rbexp -run "Table" # run experiments whose ID contains the substring
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rbpebble/internal/experiments"
)

func main() {
	var (
		list         = flag.Bool("list", false, "list experiment IDs and exit")
		run          = flag.String("run", "", "run only experiments whose ID contains this substring")
		parallel     = flag.Bool("parallel", false, "compute experiments concurrently")
		exactWorkers = flag.Int("exact-workers", 0, "expand exact searches with this many hash-sharded workers (>1; async HDA* engine)")
		deadline     = flag.Duration("deadline", 0, "top rung of the anytime ablation's budget ladder (Ablation E; 0 = 200ms)")
	)
	flag.Parse()
	experiments.ExactParallelism = *exactWorkers
	experiments.AnytimeDeadline = *deadline

	var reports []*experiments.Report
	if *parallel {
		reports = experiments.AllParallel()
	} else {
		reports = experiments.All()
	}
	if *list {
		for _, r := range reports {
			fmt.Printf("%-28s %s\n", r.ID, r.Title)
		}
		return
	}
	ran := 0
	for _, r := range reports {
		if *run != "" && !strings.Contains(r.ID, *run) {
			continue
		}
		if _, err := r.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rbexp:", err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rbexp: no experiment matches %q (try -list)\n", *run)
		os.Exit(2)
	}
}
