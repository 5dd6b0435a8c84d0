package main

import (
	"context"
	"math/rand"
	"net/netip"
	"sync/atomic"
	"time"

	"supercharged/internal/bgp"
	"supercharged/internal/daemon"
)

// serve-churn: a loaded daemon under a seeded mix of UPDATEs from the
// preferred peer, open loop at two fixed rates and then unpaced.
//
// The mix is drawn per UPDATE (one block of ~50 routes sharing attributes):
// 40 % best-path flips (withdraw a block; the next visit re-announces it),
// 30 % attribute-only changes (same next-hop, other MED and community) and
// 30 % exact duplicates. Blocks are visited in table order, so a block is
// touched again only after a full pass, long after its previous change has
// been applied.

// churnBlock is one UPDATE's worth of routes in its three renderings.
type churnBlock struct {
	announce [2]*bgp.Update // base attributes, alternate attributes
	withdraw *bgp.Update
	routes   int
}

// churnMix is the seeded operation chooser, shared by the generator and the
// isolated RIB replay so both see the same stream.
type churnMix struct {
	blocks    []churnBlock
	rng       *rand.Rand
	withdrawn []bool
	variant   []uint8
	cursor    int
}

func newChurnMix(blocks []churnBlock, rng *rand.Rand) *churnMix {
	return &churnMix{blocks: blocks, rng: rng, withdrawn: make([]bool, len(blocks)), variant: make([]uint8, len(blocks))}
}

// next picks the next block and the UPDATE to send for it. A withdraw
// probability of 1/4 on announced blocks makes withdraws plus the
// re-announcements they force 40 % of all UPDATEs.
func (m *churnMix) next() (block int, u *bgp.Update) {
	b := m.cursor
	m.cursor = (m.cursor + 1) % len(m.blocks)
	blk := &m.blocks[b]
	if m.withdrawn[b] {
		m.withdrawn[b] = false
		return b, blk.announce[m.variant[b]]
	}
	switch r := m.rng.Float64(); {
	case r < 0.25:
		m.withdrawn[b] = true
		return b, blk.withdraw
	case r < 0.625:
		m.variant[b] ^= 1
	}
	return b, blk.announce[m.variant[b]]
}

// churnState is what set-up leaves behind: a daemon loaded from both peers
// whose preferred peer is the harness's generator, waiting for phases.
type churnState struct {
	feed    *serveFeed
	blocks  []churnBlock
	blockOf map[netip.Prefix]int32
	mix     *churnMix

	epoch    time.Time
	sinks    []*recSink
	d        *daemon.Daemon
	cancel   context.CancelFunc
	baseHeap float64
	phases   chan churnPhase
	done     chan *churnPhaseResult

	// Written by the generator before it emits a block's UPDATE, read by
	// the harness after the phase: when the UPDATE was due and sent.
	due, sent []time.Duration
	// Written by each sink's delivery goroutine, per block: the flush,
	// Apply-entry and Apply-return instants of the last batch that carried
	// one of the block's routes.
	at, entry, applied [][]atomic.Int64
}

type churnPhase struct {
	rate   int           // routes/s; 0 = unpaced
	dur    time.Duration // paced phases
	routes int           // unpaced phase
}

// churnSample is one change-producing UPDATE: its due->applied latency on
// the slowest sink and where that time went.
type churnSample struct {
	latency, batchWait, queueWait, apply float64 // ms
}

type churnPhaseResult struct {
	updates    int
	routes     int
	scheduled  int // routes a paced phase was to send
	onTime     int // routes it had sent when the phase's time was up
	noChange   int
	incomplete int
	firstEmit  time.Duration
	samples    []churnSample
	lateMS     []float64
}

func churnSetup(e *env) (any, error) {
	f, err := newServeFeed(e)
	if err != nil {
		return nil, err
	}
	st := &churnState{feed: f, blockOf: make(map[netip.Prefix]int32, f.routes)}

	// One alternate attribute set per template, so the RIB's interner sees
	// a bounded population however long the churn runs.
	alt := make(map[*bgp.Attrs]*bgp.Attrs)
	for i, u := range f.upds[preferredPeer.Addr] {
		a := alt[u.Attrs]
		if a == nil {
			a = u.Attrs.Clone()
			a.MED, a.HasMED = a.MED+1, true
			a.Communities = append(a.Communities, bgp.Community(65001<<16|666))
			alt[u.Attrs] = a
		}
		st.blocks = append(st.blocks, churnBlock{
			announce: [2]*bgp.Update{u, {Attrs: a, NLRI: u.NLRI}},
			withdraw: &bgp.Update{Withdrawn: u.NLRI},
			routes:   len(u.NLRI),
		})
		for _, p := range u.NLRI {
			st.blockOf[p] = int32(i)
		}
	}
	st.mix = newChurnMix(st.blocks, e.rng(1))
	st.due = make([]time.Duration, len(st.blocks))
	st.sent = make([]time.Duration, len(st.blocks))

	st.baseHeap = heapInuse()
	st.epoch = time.Now()
	st.sinks = []*recSink{newRecSink("edge0", st.epoch, e), newRecSink("edge1", st.epoch, e)}
	for range st.sinks {
		st.at = append(st.at, make([]atomic.Int64, len(st.blocks)))
		st.entry = append(st.entry, make([]atomic.Int64, len(st.blocks)))
		st.applied = append(st.applied, make([]atomic.Int64, len(st.blocks)))
	}
	st.phases = make(chan churnPhase)
	st.done = make(chan *churnPhaseResult)
	preloaded := make(chan error, 2)

	backup := &scriptSource{meta: backupPeer, tr: e.tr, script: func(ctx context.Context, emit func(*bgp.Update) error) error {
		err := emitAll(f.upds[backupPeer.Addr], emit)
		preloaded <- err
		return err
	}}
	generator := &scriptSource{meta: preferredPeer, tr: e.tr, script: func(ctx context.Context, emit func(*bgp.Update) error) error {
		err := emitAll(f.upds[preferredPeer.Addr], emit)
		preloaded <- err
		if err != nil {
			return err
		}
		for {
			select {
			case ph := <-st.phases:
				r, err := st.generate(ctx, ph, emit)
				if err != nil {
					return err
				}
				st.done <- r
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}}
	st.d = daemon.New(daemon.Config{
		Sources: []daemon.PeerSource{backup, generator},
		Routers: []daemon.RouterSink{st.sinks[0], st.sinks[1]},
	})
	var ctx context.Context
	ctx, st.cancel = context.WithCancel(context.Background())
	st.d.Start(ctx)
	for range 2 {
		if err := <-preloaded; err != nil {
			st.Close()
			return nil, err
		}
	}
	if _, ok := quiesce(st.sinks, 60*time.Second); !ok {
		st.Close()
		return nil, context.DeadlineExceeded
	}
	return st, nil
}

// Close drains the daemon; the generator sees its context cancelled.
func (st *churnState) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := st.d.Drain(ctx)
	st.cancel()
	return err
}

// generate runs one phase on the preferred peer's ingestion goroutine.
//
// Open-loop hygiene: the schedule hangs off one fixed start instant, every
// UPDATE's latency is taken from its due time (so a stalled generator's
// backlog counts against the system, not for it), and the per-UPDATE state
// lives in slices indexed by block number - the generator touches no map.
func (st *churnState) generate(ctx context.Context, ph churnPhase, emit func(*bgp.Update) error) (*churnPhaseResult, error) {
	r := &churnPhaseResult{}
	start := time.Since(st.epoch)
	paced := ph.rate > 0
	if paced {
		r.scheduled = int(float64(ph.rate) * ph.dur.Seconds())
	}
	for {
		var due time.Duration
		if paced {
			due = start + time.Duration(float64(r.routes)/float64(ph.rate)*float64(time.Second))
			// The whole schedule is sent, late if need be; a generator
			// a full phase behind has stopped being an open loop.
			if due-start >= ph.dur || time.Since(st.epoch)-start >= 2*ph.dur {
				break
			}
			for {
				wait := due - time.Since(st.epoch)
				if wait <= 0 {
					break
				}
				time.Sleep(wait)
			}
		} else if r.routes >= ph.routes {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, u := st.mix.next()
		now := time.Since(st.epoch)
		if paced {
			st.harvest(b, r)
			st.due[b], st.sent[b] = due, now
			r.lateMS = append(r.lateMS, ms(now-due))
		}
		if r.updates == 0 {
			r.firstEmit = now
		}
		if err := emit(u); err != nil {
			return nil, err
		}
		r.updates++
		r.routes += st.blocks[b].routes
		if paced && time.Since(st.epoch)-start <= ph.dur {
			r.onTime = r.routes
		}
	}
	return r, nil
}

// harvest closes the books on the block's previous UPDATE, if any: by the
// time the block comes round again (a full pass later) its changes have been
// applied, so the sinks' last stamps for the block are that UPDATE's.
func (st *churnState) harvest(b int, r *churnPhaseResult) {
	sent := st.sent[b]
	if sent == 0 {
		return
	}
	st.sent[b] = 0
	slowest, reached := -1, 0
	var last time.Duration
	for i := range st.sinks {
		if t := time.Duration(st.applied[i][b].Load()); t >= sent {
			reached++
			if t > last {
				slowest, last = i, t
			}
		}
	}
	switch {
	case reached == 0:
		r.noChange++ // the daemon found nothing to tell the routers
	case reached < len(st.sinks):
		r.incomplete++
	default:
		due := st.due[b]
		at := time.Duration(st.at[slowest][b].Load())
		entry := time.Duration(st.entry[slowest][b].Load())
		r.samples = append(r.samples, churnSample{
			latency:   ms(last - due),
			batchWait: ms(at - due),
			queueWait: ms(entry - at),
			apply:     ms(last - entry),
		})
	}
}

// stamp returns sink i's hook: it notes, per block, the batch that last
// carried one of the block's routes. It runs after the inner Apply returned,
// so the lookups delay the sink's next batch, not this one.
func (st *churnState) stamp(i int) func(daemon.Batch, batchRec) {
	return func(b daemon.Batch, rec batchRec) {
		for k := range b.Changes {
			if blk, ok := st.blockOf[b.Changes[k].Prefix]; ok {
				st.at[i][blk].Store(int64(rec.at))
				st.entry[i][blk].Store(int64(rec.entry))
				st.applied[i][blk].Store(int64(rec.ret))
			}
		}
	}
}

// runPhase hands the generator a phase, waits for the pipeline to drain and
// checks the outcome.
func (st *churnState) runPhase(res *result, what string, ph churnPhase) (*churnPhaseResult, time.Duration) {
	for i, s := range st.sinks {
		if ph.rate > 0 {
			s.setStamp(st.stamp(i))
		} else {
			s.setStamp(nil)
		}
	}
	st.phases <- ph
	r := <-st.done
	end, ok := quiesce(st.sinks, 120*time.Second)
	res.check(ok, "%s: pipeline did not drain", what)
	if ph.rate > 0 {
		for b := range st.blocks {
			st.harvest(b, r)
		}
		// A paced phase that fell behind its schedule did not offer the
		// load it claims to have measured.
		if short := r.scheduled - r.onTime; float64(short) > 0.01*float64(r.scheduled) {
			res.Failed += short
			res.check(false, "%s: generator had sent %d of %d scheduled routes when the phase ended (< 99 %%): phase invalid", what, r.onTime, r.scheduled)
		}
		res.check(r.incomplete == 0, "%s: %d UPDATEs reached only some sinks", what, r.incomplete)
	}
	res.Ops += r.routes

	want := verifySinks(res, what, st.d.RIB(), st.sinks)
	res.check(len(want) == st.feed.routes, "%s: RIB holds %d prefixes, want %d", what, len(want), st.feed.routes)
	// The model knows which blocks the preferred peer currently announces.
	wrong := 0
	for b := range st.blocks {
		expect := preferredPeer.Addr
		if st.mix.withdrawn[b] {
			expect = backupPeer.Addr
		}
		for _, s := range st.sinks {
			if nh, _ := s.NextHop(st.blocks[b].withdraw.Withdrawn[0]); nh != expect {
				wrong++
			}
		}
	}
	res.check(wrong == 0, "%s: %d blocks resolve via the wrong peer", what, wrong)
	return r, end
}

func churnMeasure(e *env, state any) *result {
	st := state.(*churnState)
	res := newResult(wlChurn)
	start := time.Now()
	before := memStats()
	marks := []int{st.sinks[0].mark(), st.sinks[1].mark()}
	offered := 0

	// The low rate is timer-bound and steady, so the high rate, where
	// queueing and the RIB's cost show, gets the longer phase.
	late := 0.0
	for i, rate := range e.sc.rates {
		label := rateLabels[i]
		what := "serve-churn " + label
		share := [2]float64{0.25, 0.45}[i]
		r, _ := st.runPhase(res, what, churnPhase{rate: rate, dur: time.Duration(share * e.seconds * float64(time.Second))})
		offered += r.routes
		lat := column(r.samples, func(s churnSample) float64 { return s.latency })
		if !res.check(len(lat) > 0, "%s: no change-producing UPDATE", what) {
			continue
		}
		p50 := value{V: percentile(lat, 0.50), N: len(lat)}
		p95 := value{V: percentile(lat, 0.95), N: len(lat)}
		res.Named["churn_p50_ms_"+label], res.Named["churn_p95_ms_"+label] = p50, p95
		if label == rateLabels[0] {
			res.Layer["daemon.latency.p50_ms_"+label], res.Layer["daemon.latency.p95_ms_"+label] = p50.V, p95.V
		}
		res.Layer["daemon.latency.p99_ms_"+label] = percentile(lat, 0.99)
		res.Layer["daemon.latency.p999_ms_"+label] = percentile(lat, 0.999)
		for stage, get := range map[string]func(churnSample) float64{
			"daemon.batch.wait_ms": func(s churnSample) float64 { return s.batchWait },
			"daemon.queue.wait_ms": func(s churnSample) float64 { return s.queueWait },
			"daemon.sink.apply_ms": func(s churnSample) float64 { return s.apply },
		} {
			xs := column(r.samples, get)
			res.Layer[stage+"_p50_"+label] = percentile(xs, 0.50)
			res.Layer[stage+"_p95_"+label] = percentile(xs, 0.95)
		}
		late = max(late, percentile(r.lateMS, 0.95))
		e.logf("  %s: %d UPDATEs (%d routes, %d without change), p50 %.2f ms, p95 %.2f ms, generator late p95 %.3f ms",
			label, r.updates, r.routes, r.noChange, p50.V, p95.V, percentile(r.lateMS, 0.95))
	}
	res.Layer["gen.late_ms_p95"] = late

	// Unpaced, in separately drained bursts: the median burst is steadier
	// than one long one, whose rate depends on where the GC falls.
	var rates []float64
	for range e.sc.bursts {
		r, end := st.runPhase(res, "serve-churn unpaced", churnPhase{routes: int(float64(e.sc.unpaced) * e.seconds / float64(e.sc.bursts))})
		offered += r.routes
		if res.check(end > r.firstEmit, "serve-churn unpaced: nothing was applied") {
			rates = append(rates, float64(r.routes)/(end-r.firstEmit).Seconds())
			e.logf("  unpaced burst: %d routes, %.0f routes/s", r.routes, rates[len(rates)-1])
		}
	}
	res.Named["churn_routes_per_s"] = medianOf(rates)
	e.logf("  unpaced: %d bursts, median %.0f routes/s", len(rates), res.Named["churn_routes_per_s"].V)

	res.Named["churn_heap_mb"] = value{V: (heapInuse() - st.baseHeap) / (1 << 20), N: 1}
	after := memStats()
	res.Wall = time.Since(start)

	sinkTotals(res, st.sinks, marks, offered)
	res.runtimeLayer(before, after, offered)
	return res
}

func churnIsolated(e *env, state any, res *result) {
	st := state.(*churnState)
	isolatedRIB(e, st.feed, res)
	isolatedShardedRIB(e, st.feed, res)
	isolatedChurnRIB(e, st, res)
	ingestLayer(res, e.tr)
}
