package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"acobe/pkg/acobe/daemon"
)

// A timed reopen runs in a fresh process, this binary with -reopen, the
// way a real restart does: the recovery's allocations and GC then see
// only the recovering daemon, not the benchmark's own heap.

// reopenResult is the child's report, one JSON line on its stdout.
type reopenResult struct {
	Seconds float64             `json:"seconds"`
	Info    *daemon.RecoverInfo `json:"info"`
}

// runReopen is the child: open the closed data directory, time the open,
// shut down cleanly, report.
func runReopen(opt options) error {
	ds, err := newDataset(opt.seed)
	if err != nil {
		return err
	}
	cfg := daemonConfig(ds, opt.reopenStart)
	runtime.GC()
	t := time.Now()
	srv, info, err := daemon.Start(cfg, durableOptions(opt.reopen, opt.reopenShards, 1)...)
	secs := time.Since(t).Seconds()
	if err != nil {
		return err
	}
	if err := shutdown(srv); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(reopenResult{Seconds: secs, Info: info})
}

// reopen runs one timed reopen of d in a child process and waits for it.
func (b *bench) reopen(d *durable) (*reopenResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-reopen", d.dir, "-shards", strconv.Itoa(d.shards),
		"-start", strconv.Itoa(int(d.cfg.Start)), "-seed", strconv.FormatUint(b.opt.seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("reopen %s: %w", d.dir, err)
	}
	var res reopenResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil || res.Info == nil {
		return nil, fmt.Errorf("reopen %s: bad report %q: %v", d.dir, out, err)
	}
	return &res, nil
}
