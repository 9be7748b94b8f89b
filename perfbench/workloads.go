package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"acobe/internal/cert"
	"acobe/internal/obs"
	"acobe/pkg/acobe/daemon"
)

const (
	// feedShards is the warm daemon's shard count; durable runs at
	// acobed's default of one.
	feedShards = 2
	// Feed ingests a fixed number of days, so a faster daemon does the
	// same work sooner: daysPerSecond per second of -seconds. Feed and
	// durable send at least minBatches batches (ten samples beyond the
	// p99).
	daysPerSecond = 2.5
	minBatches    = 1000
	// Feed and durable end with a short open-loop rank stream.
	tailRanks    = 8
	tailInterval = 500 * time.Millisecond
	// query: queryRanks ranks, one every queryPeriod, on one connection;
	// on the other, day i's ingest starts with rank 2i and its close goes
	// out closeOffset after rank 2i+1 starts, so every close meets a rank
	// in flight. Then one background retrain over the last 4 history
	// days (2 strided training days).
	queryPeriod    = time.Second
	queryRanks     = 10
	closeOffset    = 50 * time.Millisecond
	retrainFrom    = retrainTo - 3
	retrainTo      = cert.Day(historyDays - 1)
	retrainPoll    = 10 * time.Millisecond
	lateLimitShare = 0.1 // a dispatch later than this share of the interval invalidates the run
	// durable's set-up starts on an empty data dir and takes its first
	// durableSetupDays days (Saturday, Sunday and the first weekday,
	// about 72k events) in-process, each closed with its fsync: a fixed
	// amount of start work that CPU, not a few fsyncs, dominates. It is
	// repeated durableSetups times; setup_s is the median.
	durableSetupDays = 3
	durableSetups    = 5
	// durable snapshots every durableSnapEvery closed days and stops one
	// day past a snapshot, so recovery always loads a snapshot and
	// replays exactly one day of WAL: at least durableMinDays timed days
	// after set-up, 26 days in all.
	durableSnapEvery = 5
	durableMinDays   = 23
)

// progress is what has been generated and closed so far.
type progress struct {
	generated int64    // events in closed days
	last      cert.Day // last closed day
	lastWk    *day     // last closed weekday, kept for probes
}

func (p *progress) closed(dy *day) {
	p.generated += int64(len(dy.events))
	p.last = dy.d
	if dy.weekday() {
		p.lastWk = dy
	}
}

// feedDays is how many days a feed run ingests.
func (b *bench) feedDays() int { return int(math.Ceil(daysPerSecond * b.opt.seconds)) }

// timedFeed runs at least days day cycles with feeders connections, and
// more while fewer than minBatches batches went out or until stop
// accepts the last closed day. Each day's bodies are built before its
// cycle starts.
func (b *bench) timedFeed(ds *dataset, f *front, feeders, days int, p *progress, stop func(cert.Day) bool) (*ingestLog, error) {
	lg := &ingestLog{}
	runtime.GC() // start from the same heap state whatever set-up left behind
	for n := 0; n < days || len(lg.batchMS) < minBatches || !stop(p.last); n++ {
		if ds.next >= lastGenDay {
			return nil, fmt.Errorf("ran out of generated days after %d batches", len(lg.batchMS))
		}
		dy := ds.nextDay()
		if err := dy.encode(); err != nil {
			return nil, err
		}
		b.feedDay(f, dy, feeders, lg, nil)
		dy.bodies = nil
		if err := ds.closeBatch(dy); err != nil {
			return nil, err
		}
		p.closed(dy)
	}
	return lg, nil
}

func (b *bench) reportIngest(lg *ingestLog) {
	n := len(lg.batchMS)
	b.e2eMetric("ingest_events_per_s", float64(lg.events)/lg.cycleS,
		fmt.Sprintf("%d events over %.2f s of day cycles", lg.events, lg.cycleS))
	b.e2eMetric("ingest_p50_ms", median(lg.batchMS), fmt.Sprintf("p50 of %d batches", n))
	b.e2eMetric("ingest_p99_ms", quantile(lg.batchMS, 0.99), fmt.Sprintf("p99 of %d batches", n))
	b.e2eMetric("close_p50_ms", median(lg.closeMS), fmt.Sprintf("p50 of %d closes", len(lg.closeMS)))
}

func (b *bench) reportRanks(rl *rankLog, note string) {
	n := len(rl.latMS)
	b.e2eMetric("rank_p50_ms", median(rl.latMS), fmt.Sprintf("p50 of %d ranks, %s", n, note))
	b.e2eMetric("rank_p90_ms", quantile(rl.latMS, 0.9), fmt.Sprintf("p90 of %d ranks, %s", n, note))
}

// heapMB is the live heap after forced GCs, in MB. The second GC drops
// what the first only moved to the sync.Pool victim caches, so the number
// does not depend on when the last GC before it ran.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// finishWarm is the tail shared by the in-memory workloads: the gate,
// the traced layer timings, the restart probe, heap_mb, and shutdown.
func (b *bench) finishWarm(ds *dataset, w *warmDaemon, f *front, before, after *daemon.Metrics, trainFrom, trainTo cert.Day) error {
	ind, grp := b.gate(ds, w.srv, w.generated, w.last)
	if b.rec != nil && ind != nil {
		b.layerServe(after, before, w.srv.Status())
		b.layerModel(after, before)
		b.layerHTTP(stageDelta(after, before, obs.StageSubmit))
		if err := b.layerDirect(ds, w.srv, w.lastWk, ind, grp, w.last, trainFrom, trainTo); err != nil {
			return err
		}
	}
	if err := f.close(); err != nil {
		return err
	}
	// heap_mb counts the daemon, not the benchmark's batch-pipeline state.
	probeDay := w.lastWk
	ds.batch, w.lastWk, ind, grp = nil, nil, nil, nil
	b.e2eMetric("heap_mb", heapMB(), "live heap after forced GCs; bodies and batch tables released, one probe day kept")
	if err := shutdown(w.srv); err != nil {
		return err
	}
	r, probeMetrics, err := b.restartProbe(ds, probeDay, feedShards)
	if err != nil {
		return err
	}
	b.e2eMetric("recover_s", r.recoverS, fmt.Sprintf("restart probe, median of %d reopens: %d events of day %d at %d shards", probeReopens, len(probeDay.events), probeDay.d, feedShards))
	b.e2eMetric("disk_mb", float64(r.diskBytes)/1e6, "restart probe data dir")
	if b.rec != nil {
		b.layerDurable(probeMetrics, nil, int64(len(probeDay.events)), r, "restart probe")
	}
	return nil
}

func runFeed(b *bench) error {
	ds, err := newDataset(b.opt.seed)
	if err != nil {
		return err
	}
	w, err := b.setupWarm(ds, feedShards, warmSetups)
	if err != nil {
		return err
	}
	b.e2eMetric("setup_s", median(w.setup), fmt.Sprintf("median of %d set-ups", len(w.setup)))
	b.e2eMetric("retrain_s", median(w.fit), fmt.Sprintf("median of %d initial fits in set-up, days %d..%d", len(w.fit), fitFrom, fitTo))
	f, err := b.serveHTTP(w.srv)
	if err != nil {
		return err
	}
	before := w.srv.MetricsSnapshot()
	b.sampleDepth(w.srv)
	lg, err := b.timedFeed(ds, f, 2, b.feedDays(), &w.progress, func(cert.Day) bool { return true })
	if err != nil {
		return err
	}
	b.reportIngest(lg)
	if b.opt.reference {
		return nil
	}
	runtime.GC()
	rl := b.rankStream(f, time.Now(), tailInterval, tailRanks, nil, func() cert.Day { return w.last })
	b.reportRanks(rl, "open loop at 2/s after the feed")
	after := w.srv.MetricsSnapshot()
	b.stopDepth()
	if b.rec != nil {
		b.layerRuntime(lg.allocBytes, lg.gcPause, lg.events, "the day cycles")
		b.layerLoadgen(rl)
	}
	if err := b.finishWarm(ds, w, f, before, after, fitFrom, fitTo); err != nil {
		return err
	}
	if b.rec != nil {
		b.layerOverhead("ingest_events_per_s", true)
	}
	return nil
}

func runQuery(b *bench) error {
	ds, err := newDataset(b.opt.seed)
	if err != nil {
		return err
	}
	w, err := b.setupWarm(ds, feedShards, warmSetups)
	if err != nil {
		return err
	}
	b.e2eMetric("setup_s", median(w.setup), fmt.Sprintf("median of %d set-ups", len(w.setup)))
	// The paced feeder's bodies are built before the run: nothing is
	// generated on the clock.
	days := make([]*day, queryRanks/2)
	for i := range days {
		days[i] = ds.nextDay()
		if err := days[i].encode(); err != nil {
			return err
		}
	}
	f, err := b.serveHTTP(w.srv)
	if err != nil {
		return err
	}
	before := w.srv.MetricsSnapshot()
	b.sampleDepth(w.srv)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// Reads beside writes: open-loop ranks on one connection, the paced
	// feeder on the other, on one shared schedule.
	var (
		last = atomic.Int64{}
		stop = make(chan struct{})
		wg   sync.WaitGroup
		rl   *rankLog
		lg   = &ingestLog{}
		fed  int
	)
	last.Store(int64(w.last))
	t0 := time.Now()
	slot := func(k int) time.Time { return t0.Add(time.Duration(k) * queryPeriod) }
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(stop)
		rl = b.rankStream(f, t0, queryPeriod, queryRanks, nil, func() cert.Day { return cert.Day(last.Load()) })
	}()
	go func() {
		defer wg.Done()
		for i, dy := range days {
			if !sleepUntil(slot(2*i), stop) {
				return
			}
			b.feedDay(f, dy, 1, lg, func() {
				k := 2*i + 1
				for time.Now().After(slot(k).Add(closeOffset)) {
					k++
				}
				sleepUntil(slot(k).Add(closeOffset), nil)
			})
			last.Store(int64(dy.d))
			fed = i + 1
		}
	}()
	wg.Wait()
	runtime.ReadMemStats(&m1)
	after := w.srv.MetricsSnapshot()
	b.stopDepth()
	b.phase("reads")
	b.reportIngest(lg)
	b.reportRanks(rl, fmt.Sprintf("open loop every %v beside %d paced days", queryPeriod, fed))
	if late := quantile(rl.lateMS, 0.99); late > lateLimitShare*durMS(queryPeriod) {
		b.check("rank dispatcher kept its schedule", false,
			fmt.Sprintf("run invalid, not slow: dispatcher p99 lateness %.1f ms", late))
	}
	if b.opt.reference {
		return nil
	}

	// Then one background retrain, timed from the call until the new
	// model is swapped in.
	runtime.GC()
	t := time.Now()
	span := b.rec.begin("retrain", spanRef{})
	err = w.srv.Retrain(b.ctx, retrainFrom, retrainTo, false)
	retrained := b.op("retrain", err)
	for retrained && w.srv.Status().Retraining {
		time.Sleep(retrainPoll)
	}
	retrainS := time.Since(t).Seconds()
	b.rec.end(span)
	if retrained {
		st := w.srv.Status()
		b.check("retrain swapped in", st.LastTrainError == "", st.LastTrainError)
	}
	b.phase("retrain")

	for _, dy := range days[:fed] {
		dy.bodies = nil
		if err := ds.closeBatch(dy); err != nil {
			return err
		}
		w.closed(dy)
	}
	b.e2eMetric("retrain_s", retrainS, fmt.Sprintf("Retrain(wait=false) over days %d..%d until swapped in", retrainFrom, retrainTo))
	if b.rec != nil {
		b.layerRuntime(m1.TotalAlloc-m0.TotalAlloc, time.Duration(m1.PauseTotalNs-m0.PauseTotalNs), lg.events, "the reads-beside-writes window, ranks included")
		b.layerLoadgen(rl)
	}
	if err := b.finishWarm(ds, w, f, before, after, retrainFrom, retrainTo); err != nil {
		return err
	}
	if b.rec != nil {
		b.layerOverhead("rank_p50_ms", false)
	}
	return nil
}

// sleepUntil waits until t or until stop closes, and reports whether t
// was reached with stop still open.
func sleepUntil(t time.Time, stop <-chan struct{}) bool {
	if wait := time.Until(t); wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-stop:
		case <-timer.C:
		}
	}
	return !stopped(stop)
}

func runDurable(b *bench) error {
	ds, err := newDataset(b.opt.seed)
	if err != nil {
		return err
	}
	cfg := daemonConfig(ds, 0)
	first := make([]*day, durableSetupDays)
	for i := range first {
		first[i] = ds.nextDay()
		if err := ds.closeBatch(first[i]); err != nil {
			return err
		}
	}
	var (
		setups []float64
		d      *durable
		srv    *daemon.Server
		p      progress
	)
	span := b.rec.begin("setup", spanRef{})
	for i := 0; i < durableSetups; i++ {
		di, err := newDurable(b, fmt.Sprintf("durable%d", i), cfg, 1, durableSnapEvery)
		if err != nil {
			return err
		}
		runtime.GC() // each set-up starts from the same heap state
		t := time.Now()
		s, _, err := di.start()
		if err != nil {
			return err
		}
		for _, dy := range first {
			b.loadDay(s, dy)
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < durableSetups-1 {
			if err := shutdown(s); err != nil {
				return err
			}
			if err := os.RemoveAll(di.dir); err != nil {
				return err
			}
			continue
		}
		d, srv = di, s
	}
	b.rec.end(span)
	defer os.RemoveAll(d.dir)
	for _, dy := range first {
		p.closed(dy)
	}
	b.e2eMetric("setup_s", median(setups), fmt.Sprintf("median of %d set-ups: start on an empty data dir, %d days in-process", len(setups), durableSetupDays))

	f, err := b.serveHTTP(srv)
	if err != nil {
		return err
	}
	before := srv.MetricsSnapshot()
	b.sampleDepth(srv)
	lg, err := b.timedFeed(ds, f, 2, durableMinDays, &p, func(last cert.Day) bool {
		return int(last+1)%durableSnapEvery == 1
	})
	if err != nil {
		return err
	}
	b.phase("feed")
	b.reportIngest(lg)
	if b.opt.reference {
		return nil
	}
	after := srv.MetricsSnapshot()
	b.stopDepth()
	problems := statusProblems(srv.Status(), p.generated, p.last)
	b.check("status counters", len(problems) == 0, fmt.Sprint(problems))
	if err := f.close(); err != nil {
		return err
	}
	if err := b.durableTwin(); err != nil {
		return err
	}
	b.phase("twin")
	if b.rec != nil {
		b.layerServe(after, before, srv.Status())
		b.layerHTTP(stageDelta(after, before, obs.StageSubmit))
		b.layerRuntime(lg.allocBytes, lg.gcPause, lg.events, "the day cycles")
	}
	ds.batch, p.lastWk = nil, nil
	b.e2eMetric("heap_mb", heapMB(), "live heap after forced GCs, benchmark data released")

	r, err := b.shutdownAndReopen(d, srv, p.last, durableReopens)
	if err != nil {
		return err
	}
	b.phase("restart")
	b.e2eMetric("recover_s", r.recoverS, fmt.Sprintf("reopen: snapshot loaded=%v, %d events replayed", r.info.SnapshotLoaded, r.info.ReplayedEvents))
	b.e2eMetric("disk_mb", float64(r.diskBytes)/1e6, "data dir after clean shutdown")
	if b.rec != nil {
		b.layerDurable(after, before, lg.events, r, "durable daemon")
		b.layerOverhead("ingest_events_per_s", true)
	}
	return nil
}

// durableTwin gives the durable workload its model metrics. Fitting needs
// ω+𝒟 closed days, which a durable run does not reach, so an in-memory
// 1-shard twin takes the same seeded history (a fresh generator replays
// the durable run's days and continues), fits over the short span
// (retrain_s) and serves the rank tail (rank_p50_ms, rank_p90_ms). The
// twin's final rank goes through the batch-pipeline gate too.
func (b *bench) durableTwin() error {
	ds, err := newDataset(b.opt.seed)
	if err != nil {
		return err
	}
	w, err := b.setupWarm(ds, 1, 1)
	if err != nil {
		return err
	}
	b.e2eMetric("retrain_s", w.fit[0], fmt.Sprintf("twin's initial fit, days %d..%d", fitFrom, fitTo))
	f, err := b.serveHTTP(w.srv)
	if err != nil {
		return err
	}
	before := w.srv.MetricsSnapshot()
	runtime.GC()
	rl := b.rankStream(f, time.Now(), tailInterval, tailRanks, nil, func() cert.Day { return w.last })
	b.reportRanks(rl, "open loop at 2/s on the 1-shard twin")
	after := w.srv.MetricsSnapshot()
	ind, grp := b.gate(ds, w.srv, w.generated, w.last)
	if b.rec != nil && ind != nil {
		b.layerModel(after, before)
		b.layerLoadgen(rl)
		if err := b.layerDirect(ds, w.srv, w.lastWk, ind, grp, w.last, fitFrom, fitTo); err != nil {
			return err
		}
	}
	if err := f.close(); err != nil {
		return err
	}
	return shutdown(w.srv)
}
