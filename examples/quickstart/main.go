// Quickstart: reproduce the paper's headline result in one run — the same
// router, the same failure (the paper-fig5 scenario: primary provider R2
// cut once the table has loaded), with and without the supercharger.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	supercharged "supercharged"
	"supercharged/internal/metrics"
)

func main() {
	const prefixes = 50_000
	ctx := context.Background()

	spec, ok := supercharged.LookupScenario("paper-fig5")
	if !ok {
		log.Fatal("scenario paper-fig5 is not registered")
	}
	var runner supercharged.ScenarioRunner
	std, err := runner.RunUnit(ctx, spec, supercharged.Standalone, prefixes, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	sup, err := runner.RunUnit(ctx, spec, supercharged.Supercharged, prefixes, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	// The scenario has one event: the primary's failure.
	sstd, ssup := std.Events[0].Convergence, sup.Events[0].Convergence

	fmt.Printf("Convergence after the primary provider fails (%d prefixes, %d flows):\n\n", prefixes, ssup.Samples)

	sec := func(ms float64) string { return metrics.Seconds(ms / 1e3) }
	tbl := &metrics.Table{Header: []string{"router", "median", "p95", "max", "groups", "rules rewritten"}}
	tbl.Add("non-supercharged", sec(sstd.P50MS), sec(sstd.P95MS), sec(sstd.MaxMS), "-", "-")
	tbl.Add("supercharged", sec(ssup.P50MS), sec(ssup.P95MS), sec(ssup.MaxMS), sup.Groups, sup.RuleRewrites)
	fmt.Println(tbl.Render())

	fmt.Printf("improvement: %.0fx (paper reports 900x at 512k prefixes)\n", sstd.MaxMS/ssup.MaxMS)
	fmt.Printf("supercharged data plane recovered in %s while the router's own\n", sec(ssup.MaxMS))
	fmt.Printf("FIB walk kept running for %.2fs — the 2-stage FIB at work.\n", (sup.ElapsedMS-sup.Events[0].AtMS)/1e3)
}
