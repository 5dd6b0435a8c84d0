package sweep

import (
	"fmt"
	"strings"

	"supercharged/internal/metrics"
)

// MarkdownOptions parameterizes the EXPERIMENTS.md rendering.
type MarkdownOptions struct {
	// Command is the exact reproduction command shown in the fenced
	// block; the CI freshness job runs it and fails on any diff against
	// the committed file. Worker count is deliberately NOT rendered:
	// the output must be byte-identical at any parallelism.
	Command string
}

// Markdown renders the aggregate as the committed EXPERIMENTS.md: a
// methodology preamble, the reproduction command in a fenced block, a
// cross-scenario summary, and one comparison table per scenario with
// standalone-vs-supercharged speedup columns. The output is a pure
// function of the aggregate — no dates, hosts or wall-clock times — so
// the same sweep spec and seeds reproduce it byte-for-byte.
func (a *Aggregate) Markdown(opts MarkdownOptions) []byte {
	var b strings.Builder
	multiSeed := len(a.Seeds) > 1

	b.WriteString("# EXPERIMENTS — measured convergence, standalone vs supercharged\n\n")
	b.WriteString("<!-- Generated by cmd/experiments. Do not edit by hand: regenerate\n")
	b.WriteString("     with the command in the Reproduction section. CI fails on drift. -->\n\n")

	b.WriteString("Every number below comes from a real run of the discrete-event\n")
	b.WriteString("convergence lab (`internal/sim`) executed by the parallel sweep engine\n")
	b.WriteString("(`internal/sweep`): each scenario from the registry, in both router\n")
	b.WriteString("modes, at each of its table sizes. *Standalone* is the vanilla router\n")
	b.WriteString("converging one FIB entry at a time; *supercharged* is the same router\n")
	b.WriteString("behind the paper's SDN controller, converging with one switch-rule\n")
	b.WriteString("rewrite per backup-group.\n\n")

	b.WriteString("## Methodology\n\n")
	b.WriteString("- The control plane under test is the real code (BGP RIB and decision\n")
	b.WriteString("  process, the Listing 1 processor, the Listing 2 engine, the switch\n")
	b.WriteString("  flow table). Only physical latencies are modeled, with the calibrated\n")
	b.WriteString("  defaults of DESIGN.md §5: BFD detection 90 ms, per-FIB-entry install\n")
	b.WriteString("  280 µs, controller reaction 15 ms, rule programming 25 ms.\n")
	b.WriteString("- Each (scenario, mode, table size, seed) tuple is one independent lab\n")
	b.WriteString("  on its own virtual clock. 100 probed flows per run measure blackout\n")
	b.WriteString("  windows the way the paper's FPGA does: maximum inter-packet gap,\n")
	b.WriteString("  quantized to the 70 µs probe interval.\n")
	b.WriteString("- Every probe outage is attributed to the most recent timeline event;\n")
	b.WriteString("  the tables report the per-event p50 and max blackout across affected\n")
	b.WriteString("  flows. With multiple seeds, each cell aggregates the per-seed values\n")
	b.WriteString("  into a spread — `median [min–max]` across seeds, the paper's Fig. 5\n")
	b.WriteString("  box-plot presentation in table form (full min/median/mean/p90/max\n")
	b.WriteString("  and IQR are in the JSON aggregate). *Speedup* is the ratio of the\n")
	b.WriteString("  standalone to supercharged median-across-seeds max blackout for the\n")
	b.WriteString("  same event (>1 means the supercharger won). `never` marks flows\n")
	b.WriteString("  that stayed black until the end of the run; a `(+N never)` suffix\n")
	b.WriteString("  counts them next to the survivors' quantiles, and no speedup is\n")
	b.WriteString("  claimed for an event that left flows unrecovered in either mode.\n")
	fmt.Fprintf(&b, "- Seeds: %s; identical seeds reproduce identical tables regardless of\n", seedList(a.Seeds))
	b.WriteString("  worker count. Failed runs, if any, are listed per scenario rather\n")
	b.WriteString("  than silently dropped.\n\n")

	if opts.Command != "" {
		b.WriteString("## Reproduction\n\n")
		b.WriteString("```sh\n")
		b.WriteString(opts.Command)
		b.WriteString("\n```\n\n")
		b.WriteString("Any `-workers` value yields the same bytes: every run unit is an\n")
		b.WriteString("independent virtual-clock lab, so parallelism changes only\n")
		b.WriteString("wall-clock time.\n\n")
	}

	b.WriteString("## Results at a glance\n\n")
	fmt.Fprintf(&b, "%d runs (%d failed) across %d scenarios.\n\n", a.Units, a.Failed, len(a.Scenarios))
	writeMarkdownRow(&b, []string{"scenario", "runs", "events compared", "best speedup", "worst speedup", "unrecovered"})
	writeMarkdownSep(&b, 6)
	for _, sr := range a.Scenarios {
		best, worst := speedupRange(sr.Comparisons)
		writeMarkdownRow(&b, []string{
			fmt.Sprintf("[%s](#scenario-%s)", sr.Name, sr.Name), fmt.Sprint(len(sr.Runs)),
			fmt.Sprint(len(sr.Comparisons)), fmtSpeedup(best), fmtSpeedup(worst),
			fmt.Sprint(unrecoveredEvents(sr.Comparisons)),
		})
	}
	b.WriteString("\n")

	for _, sr := range a.Scenarios {
		fmt.Fprintf(&b, "## scenario: %s\n\n", sr.Name)
		if sr.Description != "" {
			fmt.Fprintf(&b, "> %s\n\n", wrapQuote(sr.Description))
		}
		if len(sr.Comparisons) > 0 {
			b.WriteString("Data-plane convergence per event:\n\n")
			// Mixed partial deployments get per-class columns: the
			// supercharged totals mix SDN-assisted and vanilla routers, and
			// the crossover surface only shows when they are split apart.
			classed := hasClassBreakdown(sr.Comparisons)
			header := []string{"prefixes"}
			if multiSeed {
				header = append(header, "seeds")
			}
			header = append(header, "event", "kind", "peer", "detect",
				"standalone p50", "standalone max", "supercharged p50", "supercharged max", "speedup")
			if classed {
				header = append(header, "sdn-class max", "vanilla-class max", "sdn-class speedup")
			}
			writeMarkdownRow(&b, header)
			writeMarkdownSep(&b, len(header))
			for _, c := range sr.Comparisons {
				row := []string{fmt.Sprint(c.Prefixes)}
				if multiSeed {
					row = append(row, fmt.Sprint(c.Seeds))
				}
				row = append(row, fmt.Sprint(c.Event), c.Kind, orDash(c.Peer), fmtDetect(c.DetectMS),
					cellP50(c.Standalone), cellMax(c.Standalone),
					cellP50(c.Supercharged), cellMax(c.Supercharged),
					fmtSpeedup(c.SpeedupMax))
				if classed {
					row = append(row, cellMax(c.SuperchargedClass), cellMax(c.VanillaClass),
						fmtSpeedup(c.SpeedupClassMax))
				}
				writeMarkdownRow(&b, row)
			}
			b.WriteString("\n")
		}
		if len(sr.Runs) > 0 {
			b.WriteString("Control-plane cost per run:\n\n")
			header := []string{"mode", "prefixes"}
			if multiSeed {
				header = append(header, "seed")
			}
			header = append(header, "groups", "rule rewrites", "FIB writes")
			writeMarkdownRow(&b, header)
			writeMarkdownSep(&b, len(header))
			for _, r := range sr.Runs {
				row := []string{r.Mode, fmt.Sprint(r.Prefixes)}
				if multiSeed {
					row = append(row, fmt.Sprint(r.Seed))
				}
				row = append(row, fmt.Sprint(r.Groups), fmt.Sprint(r.RuleRewrites),
					fmt.Sprint(r.FIBWrites))
				writeMarkdownRow(&b, row)
			}
			b.WriteString("\n")
		}
		if len(sr.Failures) > 0 {
			b.WriteString("**Failed runs** (reported, not dropped):\n\n")
			for _, f := range sr.Failures {
				fmt.Fprintf(&b, "- `%s`: %s\n", f.Key, f.Error)
			}
			b.WriteString("\n")
		}
	}
	return []byte(b.String())
}

// speedupRange returns the best and worst max-blackout speedups of the
// comparison rows (0, 0 when none have a ratio). Rows without a ratio —
// one-sided events, or events that left flows unrecovered — are counted
// separately by unrecoveredEvents so the glance table cannot present a
// partial failure as a uniform win.
func speedupRange(cs []Comparison) (best, worst float64) {
	for _, c := range cs {
		if c.SpeedupMax == 0 {
			continue
		}
		if best == 0 || c.SpeedupMax > best {
			best = c.SpeedupMax
		}
		if worst == 0 || c.SpeedupMax < worst {
			worst = c.SpeedupMax
		}
	}
	return best, worst
}

// hasClassBreakdown reports whether any comparison row carries a
// per-router-class split (mixed partial deployments only).
func hasClassBreakdown(cs []Comparison) bool {
	for _, c := range cs {
		if c.SuperchargedClass != nil || c.VanillaClass != nil {
			return true
		}
	}
	return false
}

// unrecoveredEvents counts comparison rows where either mode left flows
// blackholed to the end of the run, in any seed.
func unrecoveredEvents(cs []Comparison) int {
	n := 0
	for _, c := range cs {
		if (c.Standalone != nil && c.Standalone.Unrecovered > 0) ||
			(c.Supercharged != nil && c.Supercharged.Unrecovered > 0) {
			n++
		}
	}
	return n
}

func seedList(seeds []int64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprint(s)
	}
	return strings.Join(parts, ", ")
}

// wrapQuote keeps multi-sentence descriptions on one quoted line.
func wrapQuote(s string) string { return strings.Join(strings.Fields(s), " ") }

func writeMarkdownRow(b *strings.Builder, cells []string) {
	b.WriteString("| ")
	b.WriteString(strings.Join(cells, " | "))
	b.WriteString(" |\n")
}

func writeMarkdownSep(b *strings.Builder, n int) {
	b.WriteString("|")
	b.WriteString(strings.Repeat("---|", n))
	b.WriteString("\n")
}

// --- shared cell formatting (markdown + text table) ---

// fmtDetect formats a detection latency; 0 means the event needed none.
func fmtDetect(ms float64) string {
	if ms <= 0 {
		return "-"
	}
	return metrics.Seconds(ms / 1e3)
}

// cellP50 formats one mode's median-blackout cell: "-" when no flow was
// affected, "never" when affected flows stayed black to the end, and —
// across multiple seeds — the spread `median [min–max]`.
func cellP50(c *ModeStats) string { return convValue(c, func(c *ModeStats) *Dist { return c.P50 }) }

// cellMax formats one mode's worst-blackout cell, with the same
// conventions.
func cellMax(c *ModeStats) string { return convValue(c, func(c *ModeStats) *Dist { return c.Max }) }

func convValue(c *ModeStats, pick func(*ModeStats) *Dist) string {
	if c == nil {
		return "-"
	}
	d := pick(c)
	if d == nil || d.MedianMS <= 0 {
		if c.Unrecovered > 0 {
			return "never"
		}
		return "-"
	}
	s := fmtSpread(d)
	// A partially recovered event must not masquerade as a clean number:
	// the quantiles cover the survivors only.
	if c.Unrecovered > 0 {
		s += fmt.Sprintf(" (+%d never)", c.Unrecovered)
	}
	return s
}

// fmtSpread renders a distribution: the median alone when every seed
// agreed (or only one ran), `median [min–max]` otherwise.
func fmtSpread(d *Dist) string {
	s := metrics.Seconds(d.MedianMS / 1e3)
	if d.N > 1 && d.MinMS != d.MaxMS {
		s += fmt.Sprintf(" [%s–%s]",
			metrics.Seconds(d.MinMS/1e3), metrics.Seconds(d.MaxMS/1e3))
	}
	return s
}

// fmtSpeedup formats a standalone/supercharged ratio: "-" when there is
// nothing to compare, two decimals below 1 (the supercharger lost), one
// decimal up to 10, whole numbers beyond.
func fmtSpeedup(r float64) string {
	switch {
	case r <= 0:
		return "-"
	case r < 1:
		return fmt.Sprintf("%.2f×", r)
	case r < 10:
		return fmt.Sprintf("%.1f×", r)
	default:
		return fmt.Sprintf("%.0f×", r)
	}
}
