// Command modelhash derives the result-cache model version from the
// simulator's own sources instead of a hand-bumped constant: it hashes
// every non-test Go file of the packages whose semantics can shape a
// cached sweep report (hashedPackages: the simulator plus its
// measurement-relevant dependency closure) and writes the truncated
// digest into the generated constant internal/sim/modelhash_gen.go,
// which sim.ModelVersion embeds.
//
//	modelhash          # regenerate internal/sim/modelhash_gen.go
//	modelhash -check   # verify the committed constant matches the sources (CI)
//
// Any edit to those packages — a real semantic change or a
// "semantics-preserving" hot-path rewrite — lands in the hash, so every
// cached sweep result is invalidated mechanically and a forgotten manual
// bump can no longer let stale timings pass the freshness checks. Run
// it from the module root (CI's docs job does).
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// hashedPackages are the directories whose sources can shape a cached
// sweep report: the simulator and its full measurement-relevant
// dependency closure — feed generation (the tables), the data-plane
// model (per-entry FIB timing), the virtual clock, metric summarization
// and the scenario layer that builds the cached RunReport. Omitting a
// package here is the silent-stale-cache bug this tool exists to kill,
// so prefer over-hashing: a false invalidation costs one re-sweep, a
// missed one serves wrong numbers.
var hashedPackages = []string{
	"internal/bgp",
	"internal/clock",
	"internal/core",
	"internal/dataplane",
	"internal/feed",
	"internal/metrics",
	"internal/mrt",
	"internal/packet",
	"internal/scenario",
	"internal/sim",
}

// genPath is the generated file; it is excluded from its own hash.
const genPath = "internal/sim/modelhash_gen.go"

// telemetryOnly reports files that carry only observability plumbing —
// metric bundles and trace emitters (telemetry.go / *_telemetry.go by
// convention). They observe the model without steering it: a simulation
// produces byte-identical reports with telemetry attached or absent, so
// editing them must not orphan every cached sweep result. Code that can
// shape a report must NOT live in a file matching this rule.
func telemetryOnly(name string) bool {
	return name == "telemetry.go" || strings.HasSuffix(name, "_telemetry.go")
}

// hashLen truncates the hex digest: 12 hex chars (48 bits) is plenty for
// distinguishing source revisions and keeps cache keys readable.
const hashLen = 12

func computeHash() (string, error) {
	var files []string
	for _, dir := range hashedPackages {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return "", fmt.Errorf("modelhash: %w (run from the module root)", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			if telemetryOnly(name) {
				continue
			}
			p := filepath.ToSlash(filepath.Join(dir, name))
			if p == genPath {
				continue
			}
			files = append(files, p)
		}
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		// The file name participates: renames and adds/removes change the
		// hash even if concatenated contents collide.
		fmt.Fprintf(h, "%s\n", p)
		f, err := os.Open(p)
		if err != nil {
			return "", fmt.Errorf("modelhash: %w", err)
		}
		if _, err := io.Copy(h, f); err != nil {
			f.Close()
			return "", fmt.Errorf("modelhash: %w", err)
		}
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:hashLen], nil
}

func render(hash string) string {
	return fmt.Sprintf(`// Code generated by cmd/modelhash; DO NOT EDIT.
// Regenerate with: go run ./cmd/modelhash

package sim

// modelSourcesHash is the truncated SHA-256 over every non-test Go
// source of the packages whose semantics can shape a cached sweep
// report (see cmd/modelhash's hashedPackages). ModelVersion embeds it,
// so result-store entries are invalidated mechanically by any edit to
// those packages; CI (the docs job) fails when this constant is stale.
const modelSourcesHash = %q
`, hash)
}

func main() {
	check := flag.Bool("check", false, "verify instead of write; exit 1 when the committed constant is stale")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "modelhash: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	hash, err := computeHash()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	want := render(hash)
	if *check {
		got, err := os.ReadFile(genPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "modelhash: -check: %v (regenerate with `go run ./cmd/modelhash`)\n", err)
			os.Exit(1)
		}
		if string(got) != want {
			fmt.Fprintf(os.Stderr,
				"modelhash: %s is stale (sources hash to %s): regenerate with `go run ./cmd/modelhash` and commit the result\n",
				genPath, hash)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "modelhash: %s is up to date (%s)\n", genPath, hash)
		return
	}
	if err := os.WriteFile(genPath, []byte(want), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "modelhash: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "modelhash: wrote %s (%s)\n", genPath, hash)
}
