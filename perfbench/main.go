// Command perfbench is the repository benchmark: it drives the served
// ACOBE detector (an in-process daemon built through pkg/acobe/daemon,
// reached over loopback HTTP) through one of three workloads, checks the
// daemon's outputs against the batch pipeline, and prints every
// end-to-end metric by name with its unit.
//
//	feed     warm in-memory daemon, 2 shards: two feeder connections post
//	         each day's NDJSON closed-loop, then close the day
//	query    the same warm daemon: open-loop ranks beside a paced feeder
//	         whose closes meet a rank in flight, then one background
//	         retrain
//	durable  feed traffic against a durable, audited 1-shard daemon
//	         started on an empty data dir; clean shutdown, timed reopen
//
// Every run reports all end-to-end metrics. Where a workload's own daemon
// cannot produce one, a fixed side measurement does, and its note says
// so: feed and query take recover_s and disk_mb from a restart probe (one
// weekday into a fresh audited daemon, reopened), durable takes its rank
// and retrain metrics from an in-memory 1-shard twin fed the same seeded
// history. -seconds sizes feed (2.5 days per second); query always sends
// 10 ranks at 1/s, then retrains; feed and durable send at least 1,000
// batches, durable over 26 days.
//
// With -trace 1 the run is traced instead: spans around every call the
// benchmark makes into a layer, a scrape of the daemon's obs stages, and
// direct timings of the layers' public functions. It prints the
// per-layer metrics and writes the spans and self times under -out. A
// traced run first runs the same workload and seed untraced in a child
// process, up to the metric it compares with; the tracing overhead is
// the difference between the two.
//
// The metric names, units and directions, and the workload list, are
// read from BENCHMARK.json (-catalog).
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload feed --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"acobe/internal/cert"
)

// options are the command-line arguments.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	catalog  string

	// reference: the untraced child of a traced run. It runs the
	// workload only until the metric the traced run compares with is
	// measured, and reports what it measured so far.
	reference bool

	// -reopen: the child side of a timed reopen (see reopen.go).
	reopen       string
	reopenShards int
	reopenStart  cert.Day
}

func main() {
	opt, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if opt.reopen != "" {
		if err := runReopen(opt); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench -reopen:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		opt   options
		trace int
	)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: feed, query or durable")
	fs.Uint64Var(&opt.seed, "seed", 1, "dataset seed (the same seed gives the same events)")
	fs.Float64Var(&opt.seconds, "seconds", 10, "seconds of timed work to measure")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&opt.out, "out", ".bench_build", "directory for data dirs and spans")
	fs.StringVar(&opt.catalog, "catalog", "BENCHMARK.json", "file declaring the workloads and metrics")
	fs.BoolVar(&opt.reference, "reference", false, "internal, with -trace 0: stop once the traced run's overhead metric is measured")
	fs.StringVar(&opt.reopen, "reopen", "", "internal: time one reopen of this closed data dir and report it")
	fs.IntVar(&opt.reopenShards, "shards", 1, "internal, with -reopen: the data dir's shard count")
	start := fs.Int("start", 0, "internal, with -reopen: the data dir's first day")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	opt.reopenStart = cert.Day(*start)
	if opt.reopen != "" {
		return opt, nil
	}
	if _, ok := workloads[opt.workload]; !ok {
		return opt, fmt.Errorf("unknown -workload %q (want feed, query or durable)", opt.workload)
	}
	if opt.seconds <= 0 {
		return opt, errors.New("-seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return opt, errors.New("-trace must be 0 or 1")
	}
	opt.trace = trace == 1
	if opt.trace && opt.reference {
		return opt, errors.New("-reference is an untraced run")
	}
	return opt, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"feed":    runFeed,
	"query":   runQuery,
	"durable": runDurable,
}

// result is the machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one run's state: options, operation tally, and the metrics
// measured so far.
type bench struct {
	opt  options
	cat  *catalog
	ctx  context.Context
	rec  *recorder // nil on untraced runs
	prov provenance

	// untraced is what the untraced child run of the same workload and
	// seed reported; only traced runs have it.
	untraced map[string]metric
	// depth samples the queue depths over the timed window (traced runs).
	depth *depthSampler

	attempted atomic.Int64
	failed    atomic.Int64

	start time.Time // run start, for the phase log

	mu         sync.Mutex
	problems   []string
	e2e        map[string]metric
	layers     map[string]metric
	layerNotes map[string]string // where each per-layer number comes from
}

// op counts one client operation and reports whether it succeeded.
func (b *bench) op(what string, err error) bool {
	b.attempted.Add(1)
	if err == nil {
		return true
	}
	b.failed.Add(1)
	b.problem(fmt.Sprintf("%s: %v", what, err))
	return false
}

// check counts one correctness check; a failed check is a failed
// operation and makes the run incorrect.
func (b *bench) check(what string, ok bool, detail string) {
	b.attempted.Add(1)
	if !ok {
		b.failed.Add(1)
		b.problem(fmt.Sprintf("check %s failed: %s", what, detail))
	}
}

// phase logs the end of a run phase with the wall time so far.
func (b *bench) phase(name string) {
	fmt.Printf("perfbench: %-10s done at %6.1f s\n", name, time.Since(b.start).Seconds())
}

func (b *bench) problem(msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	b.problems = append(b.problems, msg)
}

func run(opt options) (*result, error) {
	cat, err := loadCatalog(opt.catalog)
	if err != nil {
		return nil, err
	}
	if !cat.hasWorkload(opt.workload) {
		return nil, fmt.Errorf("workload %q is not declared in %s", opt.workload, opt.catalog)
	}
	if err := os.MkdirAll(opt.out, 0o755); err != nil {
		return nil, err
	}
	b := &bench{
		opt:        opt,
		cat:        cat,
		ctx:        context.Background(),
		start:      time.Now(),
		e2e:        map[string]metric{},
		layers:     map[string]metric{},
		layerNotes: map[string]string{},
	}
	if opt.trace {
		u, err := runUntraced(opt)
		if err != nil {
			return nil, err
		}
		b.check("untraced run of the same seed", u.Correct && u.Failed == 0,
			fmt.Sprintf("correct=%v, %d of %d operations failed", u.Correct, u.Failed, u.Attempted))
		b.untraced = u.Metrics
		b.rec = newRecorder()
	}
	b.prov = collectProvenance(opt)
	b.prov.print()
	if err := workloads[opt.workload](b); err != nil {
		return nil, err
	}

	res := &result{Attempted: b.attempted.Load(), Failed: b.failed.Load()}
	res.Correct = res.Failed == 0 && len(b.problems) == 0
	if opt.trace {
		res.Metrics = b.layers
		if err := b.rec.write(b, filepath.Join(opt.out, "trace")); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = b.e2e
	}
	if want := cat.metrics(opt.trace); !opt.reference && len(res.Metrics) != len(want) {
		return nil, fmt.Errorf("internal: run produced %d metrics, want %d (%v)", len(res.Metrics), len(want), missing(res.Metrics, want))
	}
	fmt.Printf("perfbench: %s seed=%d trace=%v correct=%v attempted=%d failed=%d\n",
		opt.workload, opt.seed, opt.trace, res.Correct, res.Attempted, res.Failed)
	return res, nil
}

func missing(got map[string]metric, want []metricDef) []string {
	var out []string
	for _, d := range want {
		if _, ok := got[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

// provenance is what a number needs next to it to be reproduced.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	DataFS     string `json:"data_fs"`
}

func collectProvenance(opt options) provenance {
	return provenance{
		Workload:   opt.workload,
		Seed:       opt.seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		DataFS:     fsType(opt.out),
	}
}

func (p provenance) print() {
	fmt.Printf("perfbench: workload=%s seed=%d GOMAXPROCS=%d nproc=%d %s data-fs=%s\n",
		p.Workload, p.Seed, p.GOMAXPROCS, p.NumCPU, p.GoVersion, p.DataFS)
}

// runUntraced runs the same workload and seed untraced in a child
// process, this binary with -trace 0 -reference, and returns its result
// line. The traced run that follows compares itself with it.
func runUntraced(opt options) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", opt.workload, "-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds), "-trace", "0", "-reference", "-out", opt.out, "-catalog", opt.catalog)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("untraced run: bad result line: %v", err)
	}
	fmt.Printf("perfbench: untraced run of the same seed done, %d operations\n", res.Attempted)
	return &res, nil
}
