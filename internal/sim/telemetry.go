package sim

import (
	"fmt"
	"time"

	"supercharged/internal/core"
	"supercharged/internal/telemetry"
)

// This file is the lab's telemetry surface: every trace span and metric
// the simulator emits is produced here, behind nil checks on
// Config.Trace / Config.Telemetry. The spans describe the model's
// timing; they do not shape it.
//
// Span geometry: one trace *process* per run (mode · size · seed), one
// *thread* per timeline event (tid = event index + 1), with tid 0 as the
// run-level pipeline row (setup, feed ingest, rule installs). All span
// timestamps come from the run's time source: offsets from the lab's
// epoch — the source's time when the lab was built, time.Unix(0,0) for
// the default virtual source — so the viewer's axis shows exactly the
// durations the reports print, whichever source drove the run.

// Trace span names (the catalogue in docs/observability.md).
const (
	spanSetup         = "setup"
	spanFeedIngest    = "feed-ingest"
	spanEvent         = "event"
	spanDetect        = "failure-detected"
	spanCtlNotified   = "controller-notified"
	spanChurnFilter   = "churn-filtered"
	spanRulesComputed = "rules-computed"
	spanRuleInstall   = "rule-install"
	spanRouterCtl     = "router-ctl"
	spanConverged     = "flow-converged"
	spanCtlCost       = "controller-cost"
	spanTakeover      = "controller-takeover"
)

// traceStart registers the run's trace process and pipeline thread.
func (l *lab) traceStart() {
	if l.cfg.Trace == nil {
		return
	}
	l.tracePID = l.cfg.Trace.Process(fmt.Sprintf("%s · %d prefixes · seed %d",
		l.cfg.Mode, l.cfg.NumPrefixes, l.cfg.Seed))
	l.cfg.Trace.Thread(l.tracePID, 0, "pipeline")
}

// vt converts an absolute source instant to a span offset from the
// run's epoch.
func (l *lab) vt(at time.Time) time.Duration { return at.Sub(l.epoch) }

// emit records one span on the run's trace process.
func (l *lab) emit(s telemetry.Span) {
	if l.cfg.Trace == nil {
		return
	}
	s.PID = l.tracePID
	l.cfg.Trace.Add(s)
}

// traceSetup closes the setup span: steady-state construction from the
// clock epoch to now (feeds loaded, FIB installed, rules drained).
func (l *lab) traceSetup() {
	l.emit(telemetry.Span{
		Name: spanSetup, Cat: "pipeline", TID: 0,
		Start: 0, Dur: l.vt(l.clk.Now()),
	})
}

// traceFeedIngest marks one provider's feed load (N routes).
func (l *lab) traceFeedIngest(prov *provider, n int) {
	l.emit(telemetry.Span{
		Name: spanFeedIngest, Cat: "pipeline", TID: 0,
		Start: l.vt(l.clk.Now()), Peer: prov.name, N: n,
	})
}

// traceEvent registers the event's thread row and its firing marker.
func (l *lab) traceEvent(st *eventState) {
	if l.cfg.Trace == nil {
		return
	}
	name := fmt.Sprintf("#%d %s", st.idx, st.ev.Kind)
	if st.ev.Peer != "" {
		name += " " + st.ev.Peer
	}
	l.cfg.Trace.Thread(l.tracePID, st.idx+1, name)
	l.emit(telemetry.Span{
		Name: spanEvent, Cat: "event", TID: st.idx + 1,
		Start: l.vt(st.absAt), Kind: string(st.ev.Kind), Peer: st.ev.Peer,
	})
}

// traceDetect spans link-cut → failure-declared on the event's thread.
func (l *lab) traceDetect(tid int, prov *provider, cutAt time.Time) {
	l.emit(telemetry.Span{
		Name: spanDetect, Cat: "pipeline", TID: tid,
		Start: l.vt(cutAt), Dur: l.clk.Now().Sub(cutAt), Peer: prov.name,
	})
}

// traceCtlNotified marks the controller reacting to a failure: the
// engine's Listing-2 retarget ran, rewriting n rules.
func (l *lab) traceCtlNotified(prov *provider, n int) {
	now := l.vt(l.clk.Now())
	l.emit(telemetry.Span{
		Name: spanCtlNotified, Cat: "pipeline", TID: 0,
		Start: now, Peer: prov.name,
	})
	l.emit(telemetry.Span{
		Name: spanRulesComputed, Cat: "pipeline", TID: 0,
		Start: now, Peer: prov.name, N: n,
	})
}

// traceChurnFilter marks one ingest batch through the supercharger: in
// updates arrived, out survived the churn filter toward the router.
func (l *lab) traceChurnFilter(prov *provider, in, out int) {
	l.emit(telemetry.Span{
		Name: spanChurnFilter, Cat: "pipeline", TID: 0,
		Start: l.vt(l.clk.Now()), Peer: prov.name, N: in, Out: out,
	})
}

// traceRuleInstall spans one switch-rule push: FLOW_MOD issued now,
// rule active after the controller-react + programming latency.
func (l *lab) traceRuleInstall(dur time.Duration) {
	l.emit(telemetry.Span{
		Name: spanRuleInstall, Cat: "pipeline", TID: 0,
		Start: l.vt(l.clk.Now()), Dur: dur,
	})
}

// traceControllerCost spans the controller's processing tax: the
// centralization-economics latency between a batch arriving (or a failure
// being detected) and the rules/updates leaving the controller.
func (l *lab) traceControllerCost(tax time.Duration) {
	l.emit(telemetry.Span{
		Name: spanCtlCost, Cat: "pipeline", TID: 0,
		Start: l.vt(l.clk.Now()), Dur: tax,
	})
}

// traceTakeover spans a controller replica takeover: primary killed now,
// the standby (one of n remaining replicas) is in charge after dur.
func (l *lab) traceTakeover(dur time.Duration, n int) {
	l.emit(telemetry.Span{
		Name: spanTakeover, Cat: "pipeline", TID: 0,
		Start: l.vt(l.clk.Now()), Dur: dur, N: n,
	})
}

// traceRouterCtl spans the router's control-plane digestion window:
// batch handed over at start, FIB walk begins at the end of the span.
func (l *lab) traceRouterCtl(start time.Time) {
	l.emit(telemetry.Span{
		Name: spanRouterCtl, Cat: "pipeline", TID: 0,
		Start: l.vt(start), Dur: l.clk.Now().Sub(start),
	})
}

// traceConverge records one recovered flow's blackout as a span whose
// duration IS the reported convergence: it starts at the last probe
// delivered before the blackout and lasts the quantized gap, so the
// trace reconstructs the report's numbers exactly.
func (l *lab) traceConverge(tid int, pr *probe, o outage, conv time.Duration) {
	if l.cfg.Trace == nil {
		return
	}
	iv := l.cfg.ProbeInterval
	lastBefore := alignDown(o.start.Sub(l.epoch)-pr.phase, iv) + pr.phase
	l.emit(telemetry.Span{
		Name: spanConverged, Cat: "pipeline", TID: tid,
		Start: lastBefore, Dur: conv, Prefix: pr.prefix.String(),
	})
}

// --- metrics ---

// simMetrics is the lab's registry-backed instrument bundle.
type simMetrics struct {
	runs        *telemetry.Counter
	events      *telemetry.Counter
	fibWrites   *telemetry.Counter
	convergence *telemetry.Histogram
}

// wireMetrics registers the lab's series. Called once per lab; a nil
// registry leaves everything nil (disabled). The processor/engine
// bundles are wired separately (wireCoreMetrics) because they must be in
// place before setup-time feed ingest, which wireMetrics postdates.
func (l *lab) wireMetrics() {
	reg := l.cfg.Telemetry
	if reg == nil {
		return
	}
	l.metrics = &simMetrics{
		runs: reg.Counter("supercharged_sim_runs_total",
			"Lab runs executed."),
		events: reg.Counter("supercharged_sim_events_total",
			"Timeline events applied."),
		fibWrites: reg.Counter("supercharged_sim_fib_writes_total",
			"Per-entry FIB installs after steady state."),
		convergence: reg.Histogram("supercharged_sim_flow_convergence_seconds",
			"Per-flow quantized blackout durations (the paper's Fig. 5 samples).", nil),
	}
}

// wireCoreMetrics attaches the processor/engine bundles. setupSupercharged
// calls it right after constructing both, so the counters see the
// setup-phase feed ingest too — not just post-steady-state traffic. Only
// the first supercharged router is instrumented: the registry rejects
// duplicate series names, and one router's counters characterize the
// deployment.
func (l *lab) wireCoreMetrics(r *router) {
	reg := l.cfg.Telemetry
	if reg == nil || r.proc == nil || l.coreWired {
		return
	}
	l.coreWired = true
	r.proc.Metrics = core.NewProcMetrics(reg)
	r.engine.Metrics = core.NewEngineMetrics(reg)
}

func (m *simMetrics) runDone(fibWrites uint64) {
	if m != nil {
		m.runs.Inc()
		m.fibWrites.Add(fibWrites)
	}
}

func (m *simMetrics) eventApplied() {
	if m != nil {
		m.events.Inc()
	}
}

func (m *simMetrics) observeConvergence(d time.Duration) {
	if m != nil {
		m.convergence.ObserveDuration(d)
	}
}
