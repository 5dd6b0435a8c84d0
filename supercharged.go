// Package supercharged reproduces "Supercharge me: Boost Router
// Convergence with SDN" (Chang, Holterbach, Happe, Vanbever — SIGCOMM
// 2015): an SDN controller that gives a legacy IP router a hierarchical
// FIB spanning two devices, cutting convergence after a peer failure from
// minutes (one FIB entry at a time) to a constant ~150 ms (one switch rule
// per backup-group).
//
// The package re-exports the library's stable surface in six sections
// — scenarios, sweeps, telemetry, feeds/MRT, the service runtime, and
// robustness — while the implementation lives under internal/:
//
//   - internal/core — the supercharger: backup-group computation (paper
//     Listing 1), VNH/VMAC allocation, the convergence engine (Listing 2)
//     and the ARP responder;
//   - internal/bgp, internal/bfd, internal/openflow — from-scratch
//     protocol substrates (RFC 4271, RFC 5880, OpenFlow 1.0);
//   - internal/dataplane, internal/netem — the legacy router's flat,
//     entry-by-entry FIB, the switch flow table and the emulated links;
//   - internal/clock — the pluggable time source: one discrete-event
//     engine driven either virtually (instant, deterministic — the lab
//     default) or against the wall clock;
//   - internal/sim — the discrete-event convergence lab: the Fig. 4
//     topology on a virtual clock, driven by scripted event timelines;
//   - internal/scenario — the declarative failure-scenario engine: named
//     event timelines compiled into lab runs with per-event metrics, plus
//     the scenario fuzzer with a seeded grammar and shrinking minimizer;
//   - internal/sweep — the parallel sweep executor: scenario × mode ×
//     size × seed cross products run across a bounded worker pool;
//   - internal/daemon — the concurrent controller service behind
//     `supercharged serve`: per-peer ingestion into a sharded RIB, a
//     batching pipeline to downstream routers through one resilient
//     delivery loop (retries, circuit breakers, gap-healing resync),
//     live telemetry;
//   - internal/chaos — the seeded fault-injection layer and soak runner
//     behind `supercharged chaoscheck`, asserting the delivery path's
//     resilience invariants under deterministic fault storms;
//   - internal/feed — synthetic full-table feeds;
//   - internal/mrt — streaming reader/writer for RFC 6396 MRT dumps.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package supercharged

import (
	"context"
	"io"

	"supercharged/internal/chaos"
	"supercharged/internal/clock"
	"supercharged/internal/daemon"
	"supercharged/internal/feed"
	"supercharged/internal/mrt"
	"supercharged/internal/scenario"
	"supercharged/internal/sim"
	"supercharged/internal/sweep"
	"supercharged/internal/telemetry"
)

// --- Service runtime: pluggable time sources ---------------------------

// TimeSource is the engine every run drains: schedule callbacks, then
// Drive them to quiescence. ScenarioRunner.Source is a factory returning
// a fresh one per run; nil keeps the deterministic virtual default.
type TimeSource = clock.Source

// NewVirtualTimeSource builds the lab default: a discrete-event virtual
// clock starting at the Unix epoch that jumps instantly between
// deadlines. Same config, same source, same bytes out.
func NewVirtualTimeSource() TimeSource { return clock.NewVirtualAtZero() }

// NewWallTimeSource builds a real-time source with the virtual engine's
// execution model (serial callbacks, same ordering contract), paced
// against the system clock: the same experiment in real time.
func NewWallTimeSource() TimeSource { return clock.NewWall() }

type (
	// Daemon is the long-running concurrent controller service behind
	// `supercharged serve`: per-peer ingestion into a sharded RIB,
	// batched fan-out to downstream routers, graceful drain.
	Daemon = daemon.Daemon
	// DaemonConfig assembles a Daemon.
	DaemonConfig = daemon.Config
	// DaemonSource is one upstream BGP feed the daemon ingests.
	DaemonSource = daemon.PeerSource
	// DaemonSink is one downstream router the daemon programs.
	DaemonSink = daemon.RouterSink
	// DaemonTableReplay replays a feed table (synthetic or MRT-sourced)
	// as one peer's session — the daemon's load generator.
	DaemonTableReplay = daemon.TableReplay
	// RouteBatch is one batched set of best-path changes shipped to a
	// router sink, on loan until the sink's Apply returns.
	RouteBatch = daemon.Batch
	// RouteChange is one prefix's post-decision outcome inside a batch.
	RouteChange = daemon.RouteChange
)

// NewDaemon builds the controller daemon; Start/Wait/Drain run it.
func NewDaemon(cfg DaemonConfig) *Daemon { return daemon.New(cfg) }

// NewFIBSink builds an in-memory router sink that programs batches into
// a map FIB — the downstream router stand-in for tests and soak runs.
func NewFIBSink(name string) *daemon.FIBSink { return daemon.NewFIBSink(name) }

// --- Robustness: resilient delivery + seeded chaos ---------------------

type (
	// DeliveryPolicy tunes the daemon's delivery loop: per-push
	// timeouts, bounded-jitter retries, a per-sink circuit breaker with
	// degraded buffering, and gap-driven snapshot resync. Zero fields
	// take DefaultDeliveryPolicy's values; there is no second path.
	DeliveryPolicy = daemon.DeliveryPolicy
	// ReconnectPolicy governs session re-establishment after a feed
	// fails: bounded attempts with jittered exponential backoff. The
	// zero value leaves a failed session down.
	ReconnectPolicy = daemon.ReconnectPolicy
	// SinkState is a stateful sink's delivery accounting: last applied
	// sequence, missing ranges, gap/heal/stale counts.
	SinkState = daemon.SinkState
	// SeqRange is one inclusive range of lost batch sequence numbers.
	SeqRange = daemon.SeqRange
	// GapError reports a detected sequence gap (applied AND reported).
	GapError = daemon.GapError
	// StatefulSink is a RouterSink whose delivery state can be read
	// back, enabling verified resync.
	StatefulSink = daemon.StatefulSink
	// FIBEntry is one programmed prefix->next-hop pair.
	FIBEntry = daemon.FIBEntry
	// ChaosConfig is one seeded fault mix (drops, stalls, transients,
	// jitter, session crashes, corrupt records) with a per-entity budget.
	ChaosConfig = chaos.Config
	// ChaosPlan is a compiled fault schedule; wrap sources and sinks
	// with its Source/Sink methods.
	ChaosPlan = chaos.Plan
	// ChaosSoakConfig assembles one chaos soak run.
	ChaosSoakConfig = chaos.SoakConfig
	// ChaosSoakReport is a soak's outcome, including every resilience
	// invariant violation found (none = passed).
	ChaosSoakReport = chaos.SoakReport
)

// DefaultDeliveryPolicy returns the delivery knobs a zero policy means.
func DefaultDeliveryPolicy() DeliveryPolicy { return daemon.DefaultDeliveryPolicy() }

// DefaultReconnectPolicy returns the production reconnect knobs.
func DefaultReconnectPolicy() ReconnectPolicy { return daemon.DefaultReconnectPolicy() }

// ChaosMix returns a named fault preset: "drop", "stall", "crash",
// "corrupt", "jitter" or "all".
func ChaosMix(name string) (ChaosConfig, error) { return chaos.Mix(name) }

// NewChaosPlan compiles a fault mix under the system clock. For
// tick-reproducible latency faults build the plan directly against a
// virtual clock via internal-facing tests, or run a soak with
// ChaosSoakConfig.Clock.
func NewChaosPlan(cfg ChaosConfig, seed uint64) *ChaosPlan { return chaos.NewPlan(cfg, seed, nil) }

// RunChaosSoak runs one seeded chaos soak against the daemon pipeline
// and checks the resilience invariants (no silent update loss, every
// gap healed by resync, breakers re-closed, graceful drain mid-fault).
func RunChaosSoak(cfg ChaosSoakConfig) *ChaosSoakReport { return chaos.RunSoak(cfg) }

// --- Scenarios: declarative failure timelines --------------------------

type (
	// Scenario is one declarative failure scenario: a parameterized peer
	// topology plus a scripted event timeline.
	Scenario = scenario.Spec
	// ScenarioPeer declares one provider of a scenario topology.
	ScenarioPeer = scenario.Peer
	// ScenarioEvent is one scripted event (peer-down, link-flap, ...).
	ScenarioEvent = scenario.Event
	// ScenarioRunner is the consolidated execution front door: modes,
	// sizes, seed, table override, progress, trace/metrics attachments
	// and the time-source factory, with Run/RunNamed/RunUnit methods.
	// The zero value runs the default standalone-vs-supercharged compare.
	ScenarioRunner = scenario.Runner
	// ScenarioReport carries the per-event convergence measurements of a
	// scenario execution, renderable as JSON, CSV or a text table.
	ScenarioReport = scenario.Report
)

// Router modes a scenario runs in (ScenarioRunner.Modes): the vanilla
// router with its entry-by-entry FIB, and the same router behind the
// supercharger.
const (
	Standalone   = sim.Standalone
	Supercharged = sim.Supercharged
)

// Scenario event kinds and detection paths. The first block is the
// first-generation single-peer events; the second block is the
// second-generation model (DESIGN.md §7): correlated multi-peer
// failures, BGP session resets with RFC 4724 graceful restart, and
// background UPDATE noise.
const (
	// EventPeerDown cuts a provider's link for good.
	EventPeerDown = sim.EventPeerDown
	// EventPeerUp restores a cut link; the session re-establishes and the
	// peer replays its feed.
	EventPeerUp = sim.EventPeerUp
	// EventLinkFlap cuts a link and restores it Hold later; flaps shorter
	// than the detection time are absorbed.
	EventLinkFlap = sim.EventLinkFlap
	// EventPartialWithdraw withdraws the head Fraction of the peer's feed
	// with the link up.
	EventPartialWithdraw = sim.EventPartialWithdraw
	// EventBurstReannounce replays the peer's withdrawn chunk (or full
	// feed) in one burst.
	EventBurstReannounce = sim.EventBurstReannounce
	// EventRuleLoss wipes the switch flow table; the controller resyncs it.
	EventRuleLoss = sim.EventRuleLoss
	// EventControllerRestart takes the controller down for Hold.
	EventControllerRestart = sim.EventControllerRestart

	// EventSRLGDown cuts every link of a shared-risk group (Event.Peers)
	// in one event — a conduit cut taking several providers down at once.
	EventSRLGDown = sim.EventSRLGDown
	// EventSessionReset bounces the peer's BGP session with the link up;
	// Event.Graceful selects RFC 4724 graceful restart (forwarding state
	// preserved) versus a hard restart (blackout until the session
	// re-establishes and replays).
	EventSessionReset = sim.EventSessionReset
	// EventUpdateNoise re-announces feed chunks at Event.Rate updates/s
	// for Event.Hold — background control-plane load during failover.
	EventUpdateNoise = sim.EventUpdateNoise

	// DetectBFD notices failures in BFDMult × BFDInterval (90 ms).
	DetectBFD = sim.DetectBFD
	// DetectHoldTimer waits for the BGP hold timer (90 s default).
	DetectHoldTimer = sim.DetectHoldTimer
)

// Scenarios returns the registered scenarios sorted by name.
func Scenarios() []Scenario { return scenario.List() }

// LookupScenario returns a registered scenario by name.
func LookupScenario(name string) (Scenario, bool) { return scenario.Lookup(name) }

// RegisterScenario validates and registers a user-defined scenario.
func RegisterScenario(s Scenario) error { return scenario.Register(s) }

// --- Sweeps: parallel scenario × mode × size × seed execution ----------

type (
	// SweepSpec declares a sweep: scenarios × modes × table sizes × seeds.
	// The zero SweepSpec covers every registered scenario in both modes.
	SweepSpec = sweep.Spec
	// SweepUnit is one independent run of a sweep.
	SweepUnit = sweep.Unit
	// SweepUnitResult is one completed unit, streamed as workers finish.
	SweepUnitResult = sweep.UnitResult
	// SweepOptions bounds the worker pool, wires progress output and
	// caps the wall-clock budget.
	SweepOptions = sweep.Options
	// SweepAggregate is the deterministic cross-scenario comparison report,
	// renderable as JSON, a text table, or EXPERIMENTS.md markdown. With
	// several seeds every cell is a distribution (median/min/mean/p90/max
	// and IQR across seeds) rather than a point.
	SweepAggregate = sweep.Aggregate
)

// ExpandSweep resolves a sweep spec into its run units in deterministic
// order.
func ExpandSweep(spec SweepSpec) ([]SweepUnit, error) { return sweep.Expand(spec) }

// StreamSweep executes units across a bounded worker pool, delivering
// each result as it completes; the channel closes when all are done.
// Cancelling the context stops in-flight simulations between events.
func StreamSweep(ctx context.Context, units []SweepUnit, opts SweepOptions) <-chan SweepUnitResult {
	return sweep.Stream(ctx, units, opts)
}

// RunSweep expands, executes and aggregates a sweep. Unit failures are
// reported in the aggregate rather than aborting the sweep; a cancelled
// or over-budget sweep returns the partial aggregate alongside the
// context error.
func RunSweep(ctx context.Context, spec SweepSpec, opts SweepOptions) (*SweepAggregate, error) {
	return sweep.Run(ctx, spec, opts)
}

// --- Telemetry: opt-in observability (DESIGN.md §9) --------------------
//
// Everything is nil-is-off: instrumented and bare runs produce
// byte-identical reports.

type (
	// MetricsRegistry holds counters, gauges and histograms and renders
	// the Prometheus text exposition; a nil registry disables every hook.
	MetricsRegistry = telemetry.Registry
	// ConvergenceTrace records the convergence pipeline as structured
	// spans in source time, exportable as JSONL or Chrome trace-event
	// JSON (Perfetto-openable).
	ConvergenceTrace = telemetry.Trace
	// TraceSpan is one recorded pipeline interval or instant.
	TraceSpan = telemetry.Span
	// TelemetryServer is the opt-in HTTP endpoint serving /metrics,
	// /runs and /debug/pprof.
	TelemetryServer = telemetry.Server
	// RunTracker follows sweep units through their lifecycle for the
	// live /runs page; attach via SweepOptions.Runs.
	RunTracker = telemetry.RunTracker
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewConvergenceTrace builds an empty trace recorder.
func NewConvergenceTrace() *ConvergenceTrace { return telemetry.NewTrace() }

// ServeTelemetry starts the observability endpoint on addr (":0" picks
// an ephemeral port; the bound address is in the returned server's
// Addr). reg and runs may each be nil.
func ServeTelemetry(addr string, reg *MetricsRegistry, runs *RunTracker) (*TelemetryServer, error) {
	return telemetry.Serve(addr, reg, runs)
}

// --- Feeds and MRT: routing tables the lab announces -------------------
//
// From the synthetic generator or a real RFC 6396 dump (docs/feeds.md,
// DESIGN.md §10).

type (
	// FeedTable is a routing table: routes over a shared, interned
	// attribute-template pool. Both backends produce one.
	FeedTable = feed.Table
	// FeedConfig parameterizes the synthetic generator.
	FeedConfig = feed.Config
	// FeedDump is a loaded MRT dump: the merged table plus per-peer views.
	FeedDump = feed.Dump
	// MRTReader streams records from an RFC 6396 dump (gzip'd or plain).
	MRTReader = mrt.Reader
	// MRTWriter renders records as an RFC 6396 dump.
	MRTWriter = mrt.Writer
	// MRTRecord is one decoded MRT record.
	MRTRecord = mrt.Record
)

// GenerateFeed builds the synthetic table: N prefixes over a template
// pool, deterministic per (N, Seed).
func GenerateFeed(cfg FeedConfig) *FeedTable { return feed.Generate(cfg) }

// LoadMRT reads a TABLE_DUMP_V2 dump (gzip detected transparently) into
// a merged table plus per-peer views sharing one interned template pool.
func LoadMRT(r io.Reader) (*FeedDump, error) { return feed.FromMRT(r) }

// NewMRTReader wraps r for record-at-a-time decoding; NewMRTWriter is
// its inverse.
func NewMRTReader(r io.Reader) *MRTReader { return mrt.NewReader(r) }

// NewMRTWriter returns a writer rendering records to w.
func NewMRTWriter(w io.Writer) *MRTWriter { return mrt.NewWriter(w) }
