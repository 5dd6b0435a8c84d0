package telemetry

import (
	"sort"
	"sync"
	"time"
)

// RunInfo is one tracked unit of work as the /runs page reports it.
type RunInfo struct {
	Key     string        `json:"key"`
	Started time.Time     `json:"started"`
	Wall    time.Duration `json:"wall_ns,omitempty"`
	Status  string        `json:"status"` // running, ok, failed
	Err     string        `json:"err,omitempty"`
}

// RunSnapshot is the JSON payload of the /runs status page: aggregate
// progress counters plus the in-flight and most recently finished units.
type RunSnapshot struct {
	Total   int       `json:"total"`
	Done    int       `json:"done"`
	Failed  int       `json:"failed"`
	Active  []RunInfo `json:"active"`
	Recent  []RunInfo `json:"recent"`
	Started time.Time `json:"started"`
}

// recentKeep bounds the finished-unit ring on the /runs page.
const recentKeep = 32

// RunTracker follows a sweep's units through their lifecycle for the
// live /runs page. Nil-safe like the rest of the package: a nil tracker
// ignores every call and snapshots empty.
type RunTracker struct {
	mu      sync.Mutex
	total   int
	done    int
	failed  int
	started time.Time
	active  map[string]RunInfo
	recent  []RunInfo
}

// NewRunTracker returns a tracker expecting total units (0 if unknown).
func NewRunTracker(total int) *RunTracker {
	return &RunTracker{
		total:   total,
		started: time.Now(),
		active:  make(map[string]RunInfo),
	}
}

// SetTotal (re)declares the expected unit count.
func (rt *RunTracker) SetTotal(n int) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.total = n
	rt.mu.Unlock()
}

// Start marks a unit as in flight.
func (rt *RunTracker) Start(key string) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	rt.active[key] = RunInfo{Key: key, Started: time.Now(), Status: "running"}
	rt.mu.Unlock()
}

// Finish marks a unit done. err describes the outcome; wall is the
// unit's host wall-clock cost.
func (rt *RunTracker) Finish(key string, wall time.Duration, err error) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	info, ok := rt.active[key]
	if !ok {
		info = RunInfo{Key: key, Started: time.Now()}
	}
	delete(rt.active, key)
	info.Wall = wall
	if err != nil {
		info.Status, info.Err = "failed", err.Error()
		rt.failed++
	} else {
		info.Status = "ok"
	}
	rt.done++
	rt.recent = append(rt.recent, info)
	if len(rt.recent) > recentKeep {
		rt.recent = rt.recent[len(rt.recent)-recentKeep:]
	}
}

// Snapshot returns the current state for the /runs page. Active units
// are sorted by start time so the longest-running lead the list.
func (rt *RunTracker) Snapshot() RunSnapshot {
	if rt == nil {
		return RunSnapshot{}
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	snap := RunSnapshot{
		Total:   rt.total,
		Done:    rt.done,
		Failed:  rt.failed,
		Started: rt.started,
		Active:  make([]RunInfo, 0, len(rt.active)),
		Recent:  append([]RunInfo(nil), rt.recent...),
	}
	for _, info := range rt.active {
		snap.Active = append(snap.Active, info)
	}
	sort.Slice(snap.Active, func(i, j int) bool {
		if !snap.Active[i].Started.Equal(snap.Active[j].Started) {
			return snap.Active[i].Started.Before(snap.Active[j].Started)
		}
		return snap.Active[i].Key < snap.Active[j].Key
	})
	return snap
}
