package bfd

import (
	"supercharged/internal/telemetry"
)

// This file is BFD's telemetry surface.

// Metrics counts BFD session activity and measures detection latency. A
// nil *Metrics disables every hook (one branch each).
type Metrics struct {
	Transitions *telemetry.Counter
	Detections  *telemetry.Counter
	// DetectionTime observes the session's negotiated detection timeout
	// (seconds) each time the detection timer actually fires — the
	// failure-detection share of the paper's ~150 ms convergence budget.
	DetectionTime *telemetry.Histogram
}

// NewMetrics registers the BFD series on reg (nil reg returns nil, the
// disabled bundle).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Transitions: reg.Counter("supercharged_bfd_state_transitions_total",
			"BFD session state transitions (all edges)."),
		Detections: reg.Counter("supercharged_bfd_detections_total",
			"Failures declared by detection-timer expiry."),
		DetectionTime: reg.Histogram("supercharged_bfd_detection_seconds",
			"Negotiated detection timeout at each detection-timer expiry.", nil),
	}
}

func (m *Metrics) transition() {
	if m != nil {
		m.Transitions.Inc()
	}
}

func (m *Metrics) detected(seconds float64) {
	if m != nil {
		m.Detections.Inc()
		m.DetectionTime.Observe(seconds)
	}
}
