// Command rbexp regenerates the paper's tables and figures from the
// library's implementations and prints them as aligned text reports.
// Each report ends with its checks, computed from its own rows, and a
// verdict derived from them; rbexp exits 1 when any check fails.
//
// Usage:
//
//	rbexp              # run every experiment
//	rbexp -list        # list experiment IDs and titles without running any
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
		list = flag.Bool("list", false, "list experiment IDs and titles and exit")
		run  = flag.String("run", "", "run only experiments whose ID contains this substring")
	)
	flag.Parse()

	ran, failed := 0, 0
	for _, e := range experiments.Registry {
		if !strings.Contains(e.ID, *run) {
			continue
		}
		ran++
		if *list {
			fmt.Printf("%-32s %s\n", e.ID, e.Title)
			continue
		}
		r := e.Build()
		if _, err := r.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "rbexp:", err)
			os.Exit(1)
		}
		if len(r.Failed()) > 0 {
			failed++
		}
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rbexp: no experiment matches %q (try -list)\n", *run)
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "rbexp: %d report(s) with failing checks\n", failed)
		os.Exit(1)
	}
}
