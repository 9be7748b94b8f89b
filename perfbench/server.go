package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"acobe/internal/cert"
	"acobe/pkg/acobe"
	"acobe/pkg/acobe/daemon"
)

// Detector geometry: acobed's defaults.
const (
	window     = 30 // ω
	matrixDays = 14 // 𝒟
	// firstMatrixDay is the first day with a full compound matrix.
	firstMatrixDay = cert.Day(window - 1 + matrixDays - 1)
	// rankDays is the query range: the last 7 closed days.
	rankDays = 7
	// historyDays is loaded in set-up: ω+𝒟 days plus enough more that the
	// last rankDays closed days are all scoreable from the first rank on.
	historyDays = window + matrixDays + rankDays - 1
	// The initial fit covers a short span: one strided training day.
	fitFrom, fitTo = firstMatrixDay, firstMatrixDay + 1
	// warmSetups is how often the warm set-up is repeated per run;
	// setup_s is the median.
	warmSetups = 2
	// probeReopens and durableReopens are how often a closed data dir is
	// reopened per run; recover_s is the median.
	probeReopens   = 3
	durableReopens = 1
)

func devConfig() acobe.DeviationConfig {
	return acobe.DeviationConfig{Window: window, MatrixDays: matrixDays, Delta: 3, Epsilon: 1, Weighted: true}
}

func detectorOptions() []acobe.Option {
	return []acobe.Option{
		acobe.WithAspects(acobe.ACOBEAspects()...),
		acobe.WithSeed(7),
		acobe.WithVotes(3),
		acobe.WithTrainStride(2),
		acobe.WithModelConfig(acobe.FastModelConfig),
	}
}

func daemonConfig(ds *dataset, start cert.Day) daemon.Config {
	return daemon.Config{
		Users:           ds.ids,
		Groups:          ds.groups,
		Membership:      ds.member,
		Start:           start,
		Deviation:       devConfig(),
		DetectorOptions: detectorOptions(),
	}
}

// rankRange is the last rankDays days closed through last.
func rankRange(last cert.Day) (cert.Day, cert.Day) { return last - rankDays + 1, last }

// loadDay submits one day in-process, batchEvents per Submit, and closes
// it.
func (b *bench) loadDay(srv *daemon.Server, dy *day) {
	for i := 0; i < batches(dy.events); i++ {
		b.op("submit", srv.Submit(b.ctx, batchOf(dy.events, i)))
	}
	b.op("close", srv.CloseDay(b.ctx, dy.d))
}

// warmDaemon is a set-up warm daemon and what its set-up measured.
type warmDaemon struct {
	progress
	srv   *daemon.Server
	setup []float64 // seconds, one per repetition
	fit   []float64 // seconds of the initial fit, one per repetition
}

// setupWarm starts repeats daemons side by side, loads the same history
// into each (generated once, outside the clock), fits each, and keeps the
// first. Set-up time per daemon is start + its history loads + its fit.
func (b *bench) setupWarm(ds *dataset, shards, repeats int) (*warmDaemon, error) {
	cfg := daemonConfig(ds, 0)
	w := &warmDaemon{setup: make([]float64, repeats)}
	srvs := make([]*daemon.Server, repeats)
	for i := range srvs {
		t := time.Now()
		srv, _, err := daemon.Start(cfg, daemon.WithShards(shards), daemon.WithObserver(daemon.NewObserver()))
		if err != nil {
			return nil, err
		}
		srvs[i] = srv
		w.setup[i] += time.Since(t).Seconds()
	}
	span := b.rec.begin("setup", spanRef{})
	for d := 0; d < historyDays; d++ {
		dy := ds.nextDay()
		if err := ds.closeBatch(dy); err != nil {
			return nil, err
		}
		for i, srv := range srvs {
			t := time.Now()
			b.loadDay(srv, dy)
			w.setup[i] += time.Since(t).Seconds()
		}
		w.closed(dy)
	}
	for i, srv := range srvs {
		t := time.Now()
		b.op("retrain", srv.Retrain(b.ctx, fitFrom, fitTo, true))
		fit := time.Since(t).Seconds()
		w.fit = append(w.fit, fit)
		w.setup[i] += fit
	}
	b.rec.end(span)
	for _, srv := range srvs[1:] {
		if err := shutdown(srv); err != nil {
			return nil, err
		}
	}
	w.srv = srvs[0]
	return w, nil
}

func shutdown(srv *daemon.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// front is the daemon's loopback HTTP listener plus the benchmark's
// client. The client holds at most two connections.
type front struct {
	hs     *http.Server
	base   string
	client *http.Client
	served chan struct{}
}

func (b *bench) serveHTTP(srv *daemon.Server) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{
		hs:     &http.Server{Handler: b.rec.wrap(srv.Handler())},
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(f.served)
		_ = f.hs.Serve(ln)
	}()
	return f, nil
}

func (f *front) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	f.client.CloseIdleConnections()
	<-f.served
	return err
}

// call sends one request and reads the whole response. span, when
// non-zero, is propagated so the server-side span becomes its child.
func (f *front) call(ctx context.Context, method, path string, body []byte, span spanRef, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, f.base+path, rd)
	if err != nil {
		return err
	}
	span.inject(req.Header)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(data)))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// durable is one durable daemon's data directory and configuration.
type durable struct {
	dir       string
	cfg       daemon.Config
	shards    int
	snapEvery int
}

func newDurable(b *bench, name string, cfg daemon.Config, shards, snapEvery int) (*durable, error) {
	dir := filepath.Join(b.opt.out, "data", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return &durable{dir: dir, cfg: cfg, shards: shards, snapEvery: snapEvery}, nil
}

// durableOptions are the durable workload's daemon options: audited,
// fsync at close.
func durableOptions(dir string, shards, snapEvery int) []daemon.Option {
	return []daemon.Option{
		daemon.WithShards(shards),
		daemon.WithDataDir(dir),
		daemon.WithAudit(),
		daemon.WithFsync(daemon.FsyncClose),
		daemon.WithSnapshotEvery(snapEvery),
		daemon.WithObserver(daemon.NewObserver()),
	}
}

// start opens the data directory in this process.
func (d *durable) start() (*daemon.Server, *daemon.RecoverInfo, error) {
	return daemon.Start(d.cfg, durableOptions(d.dir, d.shards, d.snapEvery)...)
}

// restart is what a clean shutdown and reopen of a durable directory
// measured.
type restart struct {
	diskBytes int64
	snapBytes int64
	recoverS  float64
	info      *daemon.RecoverInfo
	verifyS   float64
	verified  *daemon.VerifyReport
}

// shutdownAndReopen shuts srv down cleanly, measures the directory,
// reopens it reopens times (recover_s is the median), gates what each
// recovery reports, and walks the audit chain offline.
func (b *bench) shutdownAndReopen(d *durable, srv *daemon.Server, last cert.Day, reopens int) (*restart, error) {
	if err := shutdown(srv); err != nil {
		return nil, err
	}
	r := &restart{}
	var err error
	if r.diskBytes, r.snapBytes, err = dirSizes(d.dir); err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < reopens; i++ {
		span := b.rec.begin("recover", spanRef{})
		res, err := b.reopen(d)
		b.rec.end(span)
		if err != nil {
			return nil, err
		}
		times = append(times, res.Seconds)
		info := res.Info
		r.info = info
		b.check("recovery rejected no events", info.RejectedEvents == 0, fmt.Sprintf("%d rejected", info.RejectedEvents))
		b.check("recovery dropped no batches", info.DroppedPartialBatches == 0, fmt.Sprintf("%d dropped", info.DroppedPartialBatches))
		b.check("recovered closed-through day", info.ClosedThrough == last, fmt.Sprintf("recovered %d, want %d", info.ClosedThrough, last))
	}
	r.recoverS = median(times)
	pub, err := daemon.LoadAuditPublicKey(filepath.Join(d.dir, daemon.AuditPubFileName))
	if err != nil {
		return nil, err
	}
	span := b.rec.begin("audit.verify", spanRef{})
	t := time.Now()
	r.verified, err = daemon.VerifyAudit(d.dir, pub)
	r.verifyS = time.Since(t).Seconds()
	b.rec.end(span)
	b.check("VerifyAudit", err == nil, fmt.Sprint(err))
	fmt.Printf("  restart: reopen %v s, verify %.2f s\n", times, r.verifyS)
	return r, nil
}

// restartProbe gives an in-memory workload its recover_s and disk_mb: a
// fresh durable, audited daemon at the workload's shard count takes one
// generated weekday in-process, snapshots it at close, shuts down
// cleanly and is reopened. The probe's size is fixed by the dataset, not
// by the run.
func (b *bench) restartProbe(ds *dataset, dy *day, shards int) (*restart, *daemon.Metrics, error) {
	d, err := newDurable(b, "probe", daemonConfig(ds, dy.d), shards, 1)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(d.dir)
	srv, _, err := d.start()
	if err != nil {
		return nil, nil, err
	}
	b.loadDay(srv, dy)
	m := srv.MetricsSnapshot()
	r, err := b.shutdownAndReopen(d, srv, dy.d, probeReopens)
	return r, m, err
}

// dirSizes returns the bytes under dir and the bytes of the newest
// snapshot of each snapshot series in it.
func dirSizes(dir string) (total, snap int64, err error) {
	newest := map[string]os.FileInfo{}
	err = filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if name := e.Name(); strings.HasSuffix(name, ".snap") {
			series := strings.TrimRight(strings.TrimSuffix(name, ".snap"), "0123456789")
			if cur, ok := newest[series]; !ok || name > cur.Name() {
				newest[series] = info
			}
		}
		return nil
	})
	keys := make([]string, 0, len(newest))
	for k := range newest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		snap += newest[k].Size()
	}
	return total, snap, err
}
