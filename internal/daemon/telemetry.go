package daemon

import (
	"time"

	"supercharged/internal/telemetry"
)

// metrics is the daemon's registry-backed instrument bundle; nil (no
// Config.Telemetry) disables every hook. Per-peer and per-router series
// are labeled via telemetry.Series, so the live /metrics page breaks
// the pipeline down by session:
//
//	supercharged_daemon_session_up{peer="R2"} 1
//	supercharged_daemon_updates_total{peer="R2"} 41250
//	supercharged_daemon_batches_applied_total{router="edge0"} 310
type metrics struct {
	reg *telemetry.Registry

	changes *telemetry.Counter
	batches *telemetry.Counter
	// propagation is the latency from a batch's oldest change entering
	// the pending batch to the router having applied it: the service
	// analogue of the lab's rule-install span. batchWait is the part of
	// it spent waiting for a flush.
	propagation *telemetry.Histogram
	batchWait   *telemetry.Histogram
	// failoverLatency is RemovePeer-to-enqueued latency per peer
	// failure: the daemon-scale convergence number.
	failoverLatency *telemetry.Histogram
	failoverRoutes  *telemetry.Counter
	failoversTotal  *telemetry.Counter
}

// peerSeries caches one peer's labeled instruments.
type peerSeries struct {
	up      *telemetry.Gauge
	updates *telemetry.Counter
}

func newMetrics(reg *telemetry.Registry, d *Daemon) *metrics {
	if reg == nil {
		return nil
	}
	m := &metrics{
		reg: reg,
		changes: reg.Counter("supercharged_daemon_changes_total",
			"Best-path route changes produced by the sharded RIB."),
		batches: reg.Counter("supercharged_daemon_batches_total",
			"Batches flushed toward the downstream routers."),
		propagation: reg.Histogram("supercharged_daemon_propagation_seconds",
			"First-change-pending to applied latency per (router, batch).", nil),
		batchWait: reg.Histogram("supercharged_daemon_batch_wait_seconds",
			"First-change-pending to flush latency per batch.", nil),
		failoverLatency: reg.Histogram("supercharged_daemon_failover_seconds",
			"Peer-failure to withdraw-batch-enqueued latency.", nil),
		failoverRoutes: reg.Counter("supercharged_daemon_failover_routes_total",
			"Routes withdrawn by peer failures."),
		failoversTotal: reg.Counter("supercharged_daemon_failovers_total",
			"Peer failures converged around."),
	}
	reg.GaugeFunc("supercharged_daemon_rib_prefixes",
		"Prefixes currently in the sharded RIB.",
		func() float64 { return float64(d.rib.Len()) })
	reg.GaugeFunc("supercharged_daemon_pending_changes",
		"Route changes accumulated toward the next batch flush.",
		func() float64 {
			d.mu.Lock()
			n := len(d.batch)
			d.mu.Unlock()
			return float64(n)
		})
	return m
}

// peer returns the source's labeled series (get-or-create is idempotent
// in the registry, so no caching map is needed for correctness — the
// registry lookup is one mutex acquire).
func (m *metrics) peer(src PeerSource) peerSeries {
	name := src.Name()
	return peerSeries{
		up: m.reg.Gauge(telemetry.Series("supercharged_daemon_session_up", "peer", name),
			"1 while the peer's session is up, 0 after it failed."),
		updates: m.reg.Counter(telemetry.Series("supercharged_daemon_updates_total", "peer", name),
			"BGP UPDATE-carried routes ingested from the peer (NLRI + withdrawn)."),
	}
}

func (m *metrics) sessionUp(src PeerSource, up bool) {
	if m == nil {
		return
	}
	ps := m.peer(src)
	if up {
		ps.up.Set(1)
	} else {
		ps.up.Set(0)
	}
}

func (m *metrics) updates(src PeerSource, nlri, withdrawn, changes int) {
	if m == nil {
		return
	}
	m.peer(src).updates.Add(uint64(nlri + withdrawn))
	m.changes.Add(uint64(changes))
}

func (m *metrics) flush(b Batch) {
	if m == nil {
		return
	}
	m.batches.Inc()
	m.batchWait.ObserveDuration(b.At.Sub(b.First))
}

// routerSeries is one router's applied-batch instruments. With small
// batches delivered is called per UPDATE, so each delivery goroutine
// resolves its series once instead of per call; nil (no registry)
// disables it.
type routerSeries struct {
	applied, programmed *telemetry.Counter
	propagation         *telemetry.Histogram
}

func (m *metrics) router(sink RouterSink) *routerSeries {
	if m == nil {
		return nil
	}
	return &routerSeries{
		applied: m.routerCounter(sink, "supercharged_daemon_batches_applied_total",
			"Batches applied by the downstream router."),
		programmed: m.routerCounter(sink, "supercharged_daemon_routes_programmed_total",
			"Route changes programmed into the downstream router."),
		propagation: m.propagation,
	}
}

// delivered accounts one applied batch; now is the Apply-return instant.
func (r *routerSeries) delivered(b Batch, now time.Time) {
	if r == nil {
		return
	}
	r.applied.Inc()
	r.programmed.Add(uint64(len(b.Changes)))
	r.propagation.ObserveDuration(now.Sub(b.First))
}

func (m *metrics) failover(d time.Duration, routes int) {
	if m == nil {
		return
	}
	m.failoversTotal.Inc()
	m.failoverRoutes.Add(uint64(routes))
	m.failoverLatency.ObserveDuration(d)
}

// --- delivery recovery series (per router) ----------------------------
//
// Registry lookups are get-or-create, so these helpers fetch on use;
// preRegisterRouter creates every series up front at zero — for every
// router of every daemon — so the /metrics page (and the CI greps
// against it) shows them before the first fault.

func (m *metrics) routerCounter(sink RouterSink, name, help string) *telemetry.Counter {
	return m.reg.Counter(telemetry.Series(name, "router", sink.Name()), help)
}

func (m *metrics) routerGauge(sink RouterSink, name, help string) *telemetry.Gauge {
	return m.reg.Gauge(telemetry.Series(name, "router", sink.Name()), help)
}

const (
	helpRetries    = "Delivery attempts retried after a failed push."
	helpTimeouts   = "Pushes abandoned at the delivery policy's timeout."
	helpBreaker    = "Breaker state: 0 closed, 1 open, 2 half-open."
	helpTrips      = "Circuit breaker trips (closed/half-open to open)."
	helpResyncs    = "Full-state snapshot resyncs shipped to the router."
	helpResyncRts  = "Routes carried by resync snapshots."
	helpGaps       = "Batch sequence gaps the router reported."
	helpGapLast    = "Highest batch sequence lost in the router's most recent gap."
	helpShed       = "Oldest-batch coalescing events while degraded (load shedding)."
	helpBufBytes   = "Bytes currently buffered for the router while its breaker is open."
	helpReconnects = "Session reconnects performed for the peer."
	helpCorrupt    = "UPDATEs rejected by ingest validation for the peer."
)

// preRegisterRouter creates the router's resilience series at zero.
func (m *metrics) preRegisterRouter(sink RouterSink) {
	if m == nil {
		return
	}
	m.routerCounter(sink, "supercharged_daemon_push_retries_total", helpRetries)
	m.routerCounter(sink, "supercharged_daemon_push_timeouts_total", helpTimeouts)
	m.routerGauge(sink, "supercharged_daemon_breaker_state", helpBreaker).Set(0)
	m.routerCounter(sink, "supercharged_daemon_breaker_trips_total", helpTrips)
	m.routerCounter(sink, "supercharged_daemon_resyncs_total", helpResyncs)
	m.routerCounter(sink, "supercharged_daemon_resync_routes_total", helpResyncRts)
	m.routerCounter(sink, "supercharged_daemon_sink_gaps_total", helpGaps)
	m.routerGauge(sink, "supercharged_daemon_sink_gap_last_seq", helpGapLast).Set(0)
	m.routerCounter(sink, "supercharged_daemon_shed_coalesced_total", helpShed)
	m.routerGauge(sink, "supercharged_daemon_buffered_bytes", helpBufBytes).Set(0)
}

func (m *metrics) retry(sink RouterSink) {
	if m == nil {
		return
	}
	m.routerCounter(sink, "supercharged_daemon_push_retries_total", helpRetries).Inc()
}

func (m *metrics) pushTimeout(sink RouterSink) {
	if m == nil {
		return
	}
	m.routerCounter(sink, "supercharged_daemon_push_timeouts_total", helpTimeouts).Inc()
}

func (m *metrics) breakerState(sink RouterSink, state int32) {
	if m == nil {
		return
	}
	m.routerGauge(sink, "supercharged_daemon_breaker_state", helpBreaker).Set(float64(state))
}

func (m *metrics) breakerTrip(sink RouterSink) {
	if m == nil {
		return
	}
	m.routerCounter(sink, "supercharged_daemon_breaker_trips_total", helpTrips).Inc()
}

func (m *metrics) resync(sink RouterSink, routes int) {
	if m == nil {
		return
	}
	m.routerCounter(sink, "supercharged_daemon_resyncs_total", helpResyncs).Inc()
	m.routerCounter(sink, "supercharged_daemon_resync_routes_total", helpResyncRts).Add(uint64(routes))
}

func (m *metrics) gap(sink RouterSink, from, to uint64) {
	if m == nil {
		return
	}
	m.routerCounter(sink, "supercharged_daemon_sink_gaps_total", helpGaps).Inc()
	m.routerGauge(sink, "supercharged_daemon_sink_gap_last_seq", helpGapLast).Set(float64(to))
}

func (m *metrics) shed(sink RouterSink) {
	if m == nil {
		return
	}
	m.routerCounter(sink, "supercharged_daemon_shed_coalesced_total", helpShed).Inc()
}

func (m *metrics) bufferedBytes(sink RouterSink, n int) {
	if m == nil {
		return
	}
	m.routerGauge(sink, "supercharged_daemon_buffered_bytes", helpBufBytes).Set(float64(n))
}

func (m *metrics) reconnect(src PeerSource) {
	if m == nil {
		return
	}
	m.reg.Counter(telemetry.Series("supercharged_daemon_reconnects_total", "peer", src.Name()),
		helpReconnects).Inc()
}

func (m *metrics) corruptUpdate(src PeerSource) {
	if m == nil {
		return
	}
	m.reg.Counter(telemetry.Series("supercharged_daemon_corrupt_updates_total", "peer", src.Name()),
		helpCorrupt).Inc()
}
