// Code generated by cmd/modelhash; DO NOT EDIT.
// Regenerate with: go run ./cmd/modelhash

package sim

// modelSourcesHash is the truncated SHA-256 over every non-test Go
// source of the packages whose semantics can shape a cached sweep
// report (see cmd/modelhash's hashedPackages). ModelVersion embeds it,
// so result-store entries are invalidated mechanically by any edit to
// those packages; CI (the docs job) fails when this constant is stale.
const modelSourcesHash = "28b6d04e34b6"
