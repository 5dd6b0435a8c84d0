package core

import (
	"supercharged/internal/telemetry"
)

// This file is the controller's telemetry surface: metrics describe the
// model, they are not part of it.

// ProcMetrics counts the processor's Listing-1 work: reactions (one per
// inbound UPDATE or peer failure), churn suppressed, announcements and
// withdraws out (per prefix, and as packed UPDATE messages), groups
// allocated. A nil *ProcMetrics (the default) makes every hook a single
// branch — the zero-alloc churn-path pin holds with hooks in place.
type ProcMetrics struct {
	Updates    *telemetry.Counter
	Suppressed *telemetry.Counter
	Announced  *telemetry.Counter
	Withdraws  *telemetry.Counter
	Groups     *telemetry.Counter
	// UpdatesOut and RoutesOut count emitted UPDATE messages and the
	// prefixes (announced or withdrawn) they carry; their ratio is the
	// packing the legacy router's parser benefits from.
	UpdatesOut *telemetry.Counter
	RoutesOut  *telemetry.Counter
}

// NewProcMetrics registers the processor series on reg (nil reg returns
// nil, the disabled bundle).
func NewProcMetrics(reg *telemetry.Registry) *ProcMetrics {
	if reg == nil {
		return nil
	}
	return &ProcMetrics{
		Updates: reg.Counter("supercharged_proc_updates_total",
			"Reactions to a table change list: one per inbound BGP UPDATE or peer failure."),
		Suppressed: reg.Counter("supercharged_proc_churn_suppressed_total",
			"RIB changes suppressed by the churn filter (no announcement needed)."),
		Announced: reg.Counter("supercharged_proc_announced_prefixes_total",
			"Prefixes (re)announced toward the supercharged router."),
		Withdraws: reg.Counter("supercharged_proc_withdrawn_prefixes_total",
			"Prefixes withdrawn toward the supercharged router."),
		Groups: reg.Counter("supercharged_proc_groups_allocated_total",
			"Backup groups allocated (Listing 1's get_backup_group misses)."),
		UpdatesOut: reg.Counter("supercharged_proc_updates_out_total",
			"BGP UPDATE messages emitted toward the supercharged router."),
		RoutesOut: reg.Counter("supercharged_proc_routes_out_total",
			"Prefixes (announced or withdrawn) carried by the emitted UPDATE messages."),
	}
}

func (m *ProcMetrics) reaction() {
	if m != nil {
		m.Updates.Inc()
	}
}

func (m *ProcMetrics) suppressed() {
	if m != nil {
		m.Suppressed.Inc()
	}
}

func (m *ProcMetrics) announced() {
	if m != nil {
		m.Announced.Inc()
	}
}

func (m *ProcMetrics) withdrawn() {
	if m != nil {
		m.Withdraws.Inc()
	}
}

func (m *ProcMetrics) groupAllocated() {
	if m != nil {
		m.Groups.Inc()
	}
}

func (m *ProcMetrics) emitted(updates, routes int) {
	if m != nil {
		m.UpdatesOut.Add(uint64(updates))
		m.RoutesOut.Add(uint64(routes))
	}
}

// EngineMetrics counts the Listing-2 data-plane work: every rule push,
// the subset triggered by failure rewrites, peer transitions, resyncs.
type EngineMetrics struct {
	RulePushes      *telemetry.Counter
	FailureRewrites *telemetry.Counter
	PeerDowns       *telemetry.Counter
	PeerUps         *telemetry.Counter
	Resyncs         *telemetry.Counter
}

// NewEngineMetrics registers the engine series on reg (nil reg returns
// nil, the disabled bundle).
func NewEngineMetrics(reg *telemetry.Registry) *EngineMetrics {
	if reg == nil {
		return nil
	}
	return &EngineMetrics{
		RulePushes: reg.Counter("supercharged_engine_rule_pushes_total",
			"Switch rules pushed (installs, rewrites and resyncs)."),
		FailureRewrites: reg.Counter("supercharged_engine_failure_rewrites_total",
			"Rule rewrites triggered by peer failure or recovery (Listing 2)."),
		PeerDowns: reg.Counter("supercharged_engine_peer_down_total",
			"Peer-down events handled by the convergence engine."),
		PeerUps: reg.Counter("supercharged_engine_peer_up_total",
			"Peer-up events handled by the convergence engine."),
		Resyncs: reg.Counter("supercharged_engine_resyncs_total",
			"Full switch-state resyncs (switch reboot / reconnect recovery)."),
	}
}

func (m *EngineMetrics) rulePush() {
	if m != nil {
		m.RulePushes.Inc()
	}
}

func (m *EngineMetrics) failureRewrite() {
	if m != nil {
		m.FailureRewrites.Inc()
	}
}

func (m *EngineMetrics) peerDown() {
	if m != nil {
		m.PeerDowns.Inc()
	}
}

func (m *EngineMetrics) peerUp() {
	if m != nil {
		m.PeerUps.Inc()
	}
}

func (m *EngineMetrics) resync() {
	if m != nil {
		m.Resyncs.Inc()
	}
}
