package sim

import (
	"fmt"
	"testing"
	"time"

	"supercharged/internal/clock"
)

// TestWallSourceMatchesVirtual runs the identical lab twice — once on
// the default virtual discrete-event source, once paced by the real
// system clock — and checks that the wall run reproduces the virtual
// run's structure exactly and its timing within the measurement
// quantum. This is the pluggable-time-source contract: the engine's
// behavior is a function of the event schedule, not of which source
// fires it.
func TestWallSourceMatchesVirtual(t *testing.T) {
	// Millisecond-scale timings keep the wall run under a second while
	// still exercising every stage: detection, router control plane, FIB
	// walk, probing. RouterCtlJitter of 1 ns makes the jitter draw zero
	// without tripping the zero-means-default rule.
	base := timelineConfig(Supercharged, 200,
		TimelineEvent{At: 50 * time.Millisecond, Kind: EventPeerDown, Peer: "R2"})
	base.Config = Config{
		Mode:            Supercharged,
		NumPrefixes:     200,
		NumFlows:        20,
		Seed:            7,
		PerEntry:        50 * time.Microsecond,
		BFDInterval:     10 * time.Millisecond,
		BFDMult:         2,
		RouterCtl:       30 * time.Millisecond,
		RouterCtlJitter: time.Nanosecond,
		ControllerReact: 5 * time.Millisecond,
		FlowModLatency:  5 * time.Millisecond,
		ProbeInterval:   2 * time.Millisecond,
	}

	virtual := runTL(t, base)
	wallCfg := base
	wallCfg.Source = clock.NewWall()
	wall := runTL(t, wallCfg)

	// Structure must be identical: the same flows blacked out and
	// recovered, same groups, same rule rewrites.
	if wall.Groups != virtual.Groups || wall.RuleRewrites != virtual.RuleRewrites {
		t.Fatalf("structural divergence: wall groups=%d rewrites=%d, virtual groups=%d rewrites=%d",
			wall.Groups, wall.RuleRewrites, virtual.Groups, virtual.RuleRewrites)
	}
	we, ve := wall.Events[0], virtual.Events[0]
	if len(we.Convergence) != len(ve.Convergence) {
		t.Fatalf("wall measured %d flows, virtual %d", len(we.Convergence), len(ve.Convergence))
	}

	// Timing must agree within the quantization bound: the wall source
	// fires timers with real scheduler latency, and probes sample at
	// ProbeInterval, so each measurement may shift by a few quanta. The
	// tolerance is deliberately generous for noisy CI machines — the
	// point is that wall time tracks virtual time, not that the OS
	// scheduler is exact.
	const tol = 100 * time.Millisecond
	within := func(name string, w, v time.Duration, tol time.Duration) {
		t.Helper()
		d := w - v
		if d < 0 {
			d = -d
		}
		if d > tol {
			t.Errorf("%s: wall %v vs virtual %v (|Δ| %v > %v)", name, w, v, d, tol)
		}
	}
	within("DetectAt", we.DetectAt, ve.DetectAt, tol)
	// The control-plane drain sits behind one chained timer per FIB
	// entry, and each real timer fires late by up to a scheduling
	// quantum — lateness that accumulates across the serial chain. Its
	// quantization bound therefore scales with the walk length.
	walkTol := tol + time.Duration(base.NumPrefixes)*2*time.Millisecond
	within("Elapsed", wall.Elapsed, virtual.Elapsed, walkTol)
	for i := range ve.Convergence {
		within(fmt.Sprintf("flow %d", i), we.Convergence[i], ve.Convergence[i], tol)
	}
}
