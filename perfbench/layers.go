package main

import (
	"fmt"
	"syscall"
	"time"

	"acobe/internal/cert"
	"acobe/internal/deviation"
	"acobe/internal/obs"
	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

// stageDelta is a stage's histogram over the window between two scrapes
// of one observer (before nil: since the daemon started). The max cannot
// be windowed; it stays the lifetime max.
func stageDelta(after, before *daemon.Metrics, stage string) obs.HistogramSnapshot {
	h := after.Stage(stage).Hist()
	if before != nil {
		o := before.Stage(stage).Hist()
		h.Count -= o.Count
		h.SumNanos -= o.SumNanos
		for i := range h.Buckets {
			h.Buckets[i] -= o.Buckets[i]
		}
	}
	return h
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func p50Note(h obs.HistogramSnapshot, src string) string {
	return fmt.Sprintf("p50 of %d (%s, log2 buckets)", h.Count, src)
}

// layerServe reports the in-daemon stages of the main daemon over the
// measured window [before, after].
func (b *bench) layerServe(after, before *daemon.Metrics, st daemon.Status) {
	sub := stageDelta(after, before, obs.StageSubmit)
	b.layerMetric("serve.submit_p50_ms", durMS(sub.Quantile(0.5)), p50Note(sub, "obs ingest_submit"))
	enq := stageDelta(after, before, obs.StageEnqueue)
	b.layerMetric("serve.submit.enqueue_wait_ms", durMS(enq.Mean()), fmt.Sprintf("mean of %d (obs ingest_enqueue)", enq.Count))
	apply := stageDelta(after, before, obs.StageApply)
	b.layerMetric("serve.shard.apply_p50_ms", durMS(apply.Quantile(0.5)), p50Note(apply, "obs ingest_apply"))
	b.layerMetric("serve.shard.queue_depth_max", float64(b.depth.max),
		fmt.Sprintf("max over %d shards of %d Status() samples, one per %v of the timed window", len(st.ShardStatus), b.depth.samples, depthEvery))
	b.layerMetric("serve.shard.late_events", float64(st.Late), "Status().Late")

	merge := stageDelta(after, before, obs.StageMerge)
	pub := stageDelta(after, before, obs.StageMergePublish)
	note := p50Note(merge, "obs close_merge")
	if merge.Count == 0 {
		note = "bypassed: a 1-shard daemon has no merge"
	}
	b.layerMetric("serve.merge_p50_ms", durMS(merge.Quantile(0.5)), note)
	b.layerMetric("serve.merge.publish_max_us", float64(pub.Quantile(1).Nanoseconds())/1e3,
		fmt.Sprintf("max of %d (obs merge_publish, bucket upper edge)", pub.Count))
}

// layerModel reports the model-side stages of the daemon that ranks.
func (b *bench) layerModel(after, before *daemon.Metrics) {
	rank := stageDelta(after, before, obs.StageRank)
	b.layerMetric("serve.rank_p50_ms", durMS(rank.Quantile(0.5)), p50Note(rank, "obs rank"))
	clone := stageDelta(after, nil, obs.StageRetrainClone)
	b.layerMetric("serve.retrain.clone_ms", durMS(clone.Quantile(0.5)), p50Note(clone, "obs retrain_clone, since start"))
}

// layerHTTP reports the HTTP layer from the server-side handler spans and
// the obs submit stage over the same requests.
func (b *bench) layerHTTP(sub obs.HistogramSnapshot) {
	h := b.rec.durations("serve.http /v1/ingest")
	var total float64
	for _, v := range h {
		total += v
	}
	b.layerMetric("serve.http.ingest_p50_ms", median(h), fmt.Sprintf("p50 of %d handler spans", len(h)))
	share := 0.0
	if total > 0 {
		share = 1 - float64(sub.SumNanos)/1e6/total
	}
	b.layerMetric("serve.http.decode_share", share, fmt.Sprintf("1 - sum(ingest_submit)/sum(handler) over %d requests", len(h)))
}

// layerDurable reports the WAL, audit, snapshot and recovery layers of
// one durable daemon: its obs scrape over the window, the events logged
// in that window, and what its restart measured. src says which daemon.
func (b *bench) layerDurable(after, before *daemon.Metrics, events int64, r *restart, src string) {
	var walBytes int64
	for i, sh := range after.Shards {
		walBytes += sh.WALBytes
		if before != nil && i < len(before.Shards) {
			walBytes -= before.Shards[i].WALBytes
		}
	}
	b.layerMetric("serve.wal.bytes_per_event", float64(walBytes)/float64(max(events, 1)),
		fmt.Sprintf("WAL bytes appended / %d events (%s)", events, src))
	fsync := stageDelta(after, before, obs.StageWALFsync)
	b.layerMetric("serve.wal.fsync_p50_ms", durMS(fsync.Quantile(0.5)), p50Note(fsync, src+" wal_fsync"))
	hash := stageDelta(after, before, obs.StageWALHash)
	b.layerMetric("audit.hash_p50_us", float64(hash.Quantile(0.5).Nanoseconds())/1e3, p50Note(hash, src+" wal_hash"))
	snap := stageDelta(after, before, obs.StageSnapshot)
	b.layerMetric("serve.snapshot_p50_ms", durMS(snap.Quantile(0.5)), p50Note(snap, src+" snapshot"))
	b.layerMetric("serve.snapshot.bytes", float64(r.snapBytes), "newest snapshot per series, "+src)
	b.layerMetric("serve.recover.verify_s", r.verifyS,
		fmt.Sprintf("VerifyAudit over %d segments, %d frames (%s)", r.verified.Segments, r.verified.Frames, src))
	b.layerMetric("serve.recover.replayed_events", float64(r.info.ReplayedEvents),
		fmt.Sprintf("RecoverInfo, snapshot loaded=%v (%s)", r.info.SnapshotLoaded, src))
}

// layerDirect times the benchmark's own calls into the layers' public
// functions, outside any workload traffic: one run day consumed by a
// fresh ingestor, the streaming advance and the batch field over the
// batch pipeline's table, score/aggregate/critic over the query range
// with the serving detector, and a fit of a fresh detector over the
// workload's training span.
func (b *bench) layerDirect(ds *dataset, srv *daemon.Server, dy *day, ind, grp *acobe.Field, last, trainFrom, trainTo cert.Day) error {
	const reps = 3
	var consume []float64
	for i := 0; i < reps; i++ {
		ing, err := daemon.NewCERTIngestor(ds.ids, dy.d)
		if err != nil {
			return err
		}
		sp := b.rec.begin("features.ConsumeDay", spanRef{})
		t := time.Now()
		err = ing.ConsumeDay(dy.d, dy.events)
		consume = append(consume, msSince(t))
		b.rec.end(sp)
		if err != nil {
			return err
		}
	}
	b.layerMetric("features.consume_ms", median(consume), fmt.Sprintf("median of %d, %d events of day %d", reps, len(dy.events), dy.d))

	tbl := ds.batch.Table()
	sf, err := deviation.NewStreamField(tbl, devConfig())
	if err != nil {
		return err
	}
	sp := b.rec.begin("deviation.StreamField.Advance", spanRef{})
	t := time.Now()
	err = sf.Advance()
	adv := msSince(t)
	b.rec.end(sp)
	if err != nil {
		return err
	}
	b.layerMetric("deviation.advance_ms", adv/float64(tbl.Days()), fmt.Sprintf("per day, one Advance over %d days", tbl.Days()))
	var field []float64
	for i := 0; i < reps; i++ {
		sp := b.rec.begin("deviation.ComputeField", spanRef{})
		t := time.Now()
		_, err := deviation.ComputeField(tbl, devConfig())
		field = append(field, msSince(t))
		b.rec.end(sp)
		if err != nil {
			return err
		}
	}
	b.layerMetric("deviation.compute_field_ms", median(field), fmt.Sprintf("median of %d, %d days", reps, tbl.Days()))

	det := srv.Detector()
	from, to := rankRange(last)
	var score, agg, critic []float64
	var ranked []acobe.Ranked
	for i := 0; i < reps; i++ {
		sp := b.rec.begin("core.ScoreBatch", spanRef{})
		t := time.Now()
		series, err := det.ScoreBatch(b.ctx, from, to)
		score = append(score, msSince(t))
		b.rec.end(sp)
		if err != nil {
			return err
		}
		sp = b.rec.begin("core.Aggregate", spanRef{})
		t = time.Now()
		scores := make([][]float64, len(series))
		for a, s := range series {
			scores[a] = acobe.AggregateRelativeMax(s)
		}
		agg = append(agg, msSince(t))
		b.rec.end(sp)
		sp = b.rec.begin("core.Critic", spanRef{})
		t = time.Now()
		ranked = acobe.Critic(det.Users(), scores, 3)
		critic = append(critic, msSince(t))
		b.rec.end(sp)
	}
	note := fmt.Sprintf("median of %d over days %d..%d", reps, from, to)
	b.layerMetric("core.score_ms", median(score), note)
	b.layerMetric("core.aggregate_ms", median(agg), note+", AggregateRelativeMax (Rank's default)")
	b.layerMetric("core.critic_ms", median(critic), note)
	served, err := srv.Rank(b.ctx, from, to)
	if b.op("rank", err) {
		diff := rankingDiff(served, ranked)
		b.check("score+aggregate+critic equals served rank", diff == "", diff)
	}

	fresh, err := acobe.NewDetectorFromFields(ind, grp, ds.member, detectorOptions()...)
	if err != nil {
		return err
	}
	sp = b.rec.begin("autoencoder.Fit", spanRef{})
	t = time.Now()
	_, err = fresh.Fit(b.ctx, trainFrom, trainTo)
	fit := time.Since(t).Seconds()
	b.rec.end(sp)
	if err != nil {
		return err
	}
	b.layerMetric("autoencoder.fit_s", fit, fmt.Sprintf("fresh detector over the batch fields, days %d..%d", trainFrom, trainTo))
	return nil
}

// layerRuntime reports runtime.MemStats deltas over the timed window.
func (b *bench) layerRuntime(allocBytes uint64, gcPause time.Duration, events int64, window string) {
	b.layerMetric("runtime.alloc_bytes_per_event", float64(allocBytes)/float64(max(events, 1)),
		fmt.Sprintf("TotalAlloc delta / %d events over %s, client included", events, window))
	b.layerMetric("runtime.gc_pause_ms", durMS(gcPause), "PauseTotalNs delta over "+window)
}

// layerLoadgen reports how well the open-loop rank dispatcher kept its
// schedule.
func (b *bench) layerLoadgen(rl *rankLog) {
	b.layerMetric("loadgen.late_p99_ms", quantile(rl.lateMS, 0.99), fmt.Sprintf("p99 of %d dispatches", len(rl.lateMS)))
	b.layerMetric("loadgen.rank_backlog_max", float64(rl.backlogMax), "ranks dispatched but unanswered")
}

// layerOverhead compares the traced run's end-to-end metric name with the
// same metric of the untraced run of the same workload and seed, made
// just before in a child process. Positive is slower when traced.
func (b *bench) layerOverhead(name string, higherBetter bool) {
	traced, untraced := b.e2e[name].Value, b.untraced[name].Value
	pct := (traced/untraced - 1) * 100
	if higherBetter {
		pct = (untraced/traced - 1) * 100
	}
	b.layerMetric("trace.overhead_pct", pct, fmt.Sprintf("%s traced %.4g vs %.4g untraced, same seed; %d spans", name, traced, untraced, b.rec.count()))
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
