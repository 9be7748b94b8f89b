package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"acobe/internal/cert"
	"acobe/pkg/acobe/daemon"
)

// ingestLog accumulates the client side of timed day cycles.
type ingestLog struct {
	batchMS []float64 // round trip per ingest request
	closeMS []float64 // round trip per POST /v1/close
	events  int64     // events acknowledged
	cycleS  float64   // wall time of the day cycles (ingest + close)

	// Runtime deltas summed over the cycles only.
	allocBytes uint64
	gcPause    time.Duration
}

// feedDay is one timed day cycle: feeders connections post the day's
// bodies closed-loop (feeder w sends bodies w, w+feeders, ...), then one
// POST /v1/close closes the day. holdClose, when set, runs between the
// two and its wait is not part of the cycle's time.
func (b *bench) feedDay(f *front, dy *day, feeders int, lg *ingestLog, holdClose func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle := b.rec.begin("day.cycle", spanRef{})
	start := time.Now()
	lat := make([][]float64, feeders)
	acked := make([]int64, feeders)
	var wg sync.WaitGroup
	for w := 0; w < feeders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fs := b.rec.begin("client.feeder", cycle)
			for i := w; i < len(dy.bodies); i += feeders {
				sp := b.rec.begin("client.ingest", fs)
				var ack struct {
					Accepted int `json:"accepted"`
				}
				t := time.Now()
				err := f.call(b.ctx, "POST", "/v1/ingest", dy.bodies[i], sp, &ack)
				lat[w] = append(lat[w], msSince(t))
				b.rec.end(sp)
				if b.op("ingest", err) {
					want := len(batchOf(dy.events, i))
					b.check("ingest ack", ack.Accepted == want, fmt.Sprintf("day %d batch %d: accepted %d of %d", dy.d, i, ack.Accepted, want))
					acked[w] += int64(ack.Accepted)
				}
			}
			b.rec.end(fs)
		}(w)
	}
	wg.Wait()
	var held time.Duration
	if holdClose != nil {
		t := time.Now()
		holdClose()
		held = time.Since(t)
	}
	sp := b.rec.begin("client.close", cycle)
	t := time.Now()
	err := f.call(b.ctx, "POST", fmt.Sprintf("/v1/close?day=%d", dy.d), nil, sp, nil)
	closeMS := msSince(t)
	b.rec.end(sp)
	b.op("close", err)
	elapsed := time.Since(start) - held
	b.rec.end(cycle)
	runtime.ReadMemStats(&after)

	lg.cycleS += elapsed.Seconds()
	lg.closeMS = append(lg.closeMS, closeMS)
	for w := range lat {
		lg.batchMS = append(lg.batchMS, lat[w]...)
		lg.events += acked[w]
	}
	lg.allocBytes += after.TotalAlloc - before.TotalAlloc
	lg.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// rankLog is the client side of an open-loop rank stream.
type rankLog struct {
	latMS      []float64 // completion minus scheduled send time
	lateMS     []float64 // dispatcher wake-up minus scheduled time
	backlogMax int64     // most ranks dispatched but not yet answered
}

// rankStream sends open-loop GET /v1/rank requests on one connection.
// Request k is scheduled at t0 + k·interval whatever happened to earlier
// requests, and its latency runs from that scheduled time, so a backlog
// shows up as latency rather than as a slower schedule. It stops after n
// requests (n > 0) or when stop closes, and waits for every answer. last
// names the newest closed day at send time; each request ranks the last
// rankDays closed days.
func (b *bench) rankStream(f *front, t0 time.Time, interval time.Duration, n int, stop <-chan struct{}, last func() cert.Day) *rankLog {
	lg := &rankLog{}
	// Far more slots than any run dispatches, so the dispatcher never
	// waits on the sender: the loop stays open.
	slots := make(chan time.Time, 1<<12)
	var outstanding atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for sched := range slots {
			from, to := rankRange(last())
			sp := b.rec.begin("client.rank", spanRef{})
			var resp struct {
				List []struct {
					User string `json:"User"`
				} `json:"list"`
			}
			err := f.call(b.ctx, "GET", fmt.Sprintf("/v1/rank?from=%d&to=%d&top=%d", from, to, rankTop), nil, sp, &resp)
			lg.latMS = append(lg.latMS, msSince(sched))
			b.rec.end(sp)
			outstanding.Add(-1)
			if b.op("rank", err) {
				b.check("rank list length", len(resp.List) == rankTop, fmt.Sprintf("got %d rows, want %d", len(resp.List), rankTop))
			}
		}
	}()
	for k := 0; n <= 0 || k < n; k++ {
		sched := t0.Add(time.Duration(k) * interval)
		if !sleepUntil(sched, stop) {
			break
		}
		lg.lateMS = append(lg.lateMS, msSince(sched))
		if o := outstanding.Add(1); o > lg.backlogMax {
			lg.backlogMax = o
		}
		slots <- sched
	}
	close(slots)
	<-done
	return lg
}

// rankTop is the list length each rank request asks for.
const rankTop = 50

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// depthEvery is how often a traced run samples the shard queue depths.
const depthEvery = time.Millisecond

// depthSampler polls the daemon's per-shard ingest queue depths over a
// timed window. The obs high-water mark cannot be windowed (set-up's
// in-process loads fill the queues first), so traced runs sample
// Status() instead.
type depthSampler struct {
	stop, done chan struct{}
	max        int
	samples    int
}

// sampleDepth starts sampling srv's queue depths; traced runs only.
func (b *bench) sampleDepth(srv *daemon.Server) {
	if b.rec == nil {
		return
	}
	s := &depthSampler{stop: make(chan struct{}), done: make(chan struct{})}
	b.depth = s
	go func() {
		defer close(s.done)
		tick := time.NewTicker(depthEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			for _, sh := range srv.Status().ShardStatus {
				s.max = max(s.max, sh.QueueDepth)
			}
			s.samples++
		}
	}()
}

// stopDepth ends the sampling started by sampleDepth.
func (b *bench) stopDepth() {
	if b.depth == nil {
		return
	}
	close(b.depth.stop)
	<-b.depth.done
}
