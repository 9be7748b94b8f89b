package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"acobe/internal/cert"
	"acobe/internal/features"
	"acobe/pkg/acobe/daemon"
)

const (
	// usersPerDept × the 4 default departments = 1,000 users, about 52
	// events per user-day (about 64k on a weekday).
	usersPerDept = 250
	// batchEvents is the events per ingest request.
	batchEvents = 1000
	// lastGenDay bounds the generator's span; runs stop far before it.
	lastGenDay = cert.Day(400)
)

// dataset is the seeded event source. Days are generated in order (the
// generator's entity pools evolve day by day), always outside any timed
// section.
type dataset struct {
	gen    *cert.Generator
	users  []cert.User
	ids    []string
	groups []string
	member []int
	next   cert.Day

	// batch is the batch pipeline's extractor: every closed day is fed to
	// it too, so the gate can rebuild the served state offline.
	batch *features.Extractor
}

func newDataset(seed uint64) (*dataset, error) {
	cfg := cert.SmallConfig(usersPerDept)
	cfg.Seed = seed
	cfg.End = lastGenDay
	gen, err := cert.New(cfg)
	if err != nil {
		return nil, err
	}
	ds := &dataset{gen: gen, users: gen.Users(), groups: gen.Departments()}
	deptIndex := make(map[string]int, len(ds.groups))
	for i, d := range ds.groups {
		deptIndex[d] = i
	}
	for _, u := range ds.users {
		ds.ids = append(ds.ids, u.ID)
		ds.member = append(ds.member, deptIndex[u.Department])
	}
	if ds.batch, err = features.NewExtractor(ds.ids, 0, 0); err != nil {
		return nil, err
	}
	return ds, nil
}

// day is one generated day: its events in user order and, when built,
// the NDJSON request bodies carrying them (batchEvents per body).
type day struct {
	d      cert.Day
	certs  []cert.Event
	events []daemon.Event
	bodies [][]byte
}

func (dy *day) weekday() bool { return !dy.d.IsWeekend() }

// nextDay generates the next day, in parallel user stripes.
func (ds *dataset) nextDay() *day {
	d := ds.next
	ds.next++
	per := make([][]cert.Event, len(ds.users))
	parallel(len(ds.users), func(i int) { per[i] = ds.gen.UserDay(ds.users[i], d) })
	n := 0
	for _, evs := range per {
		n += len(evs)
	}
	dy := &day{d: d, certs: make([]cert.Event, 0, n)}
	for _, evs := range per {
		dy.certs = append(dy.certs, evs...)
	}
	dy.events = make([]daemon.Event, len(dy.certs))
	for i := range dy.certs {
		dy.events[i].Cert = &dy.certs[i]
	}
	return dy
}

// encode builds the day's NDJSON request bodies.
func (dy *day) encode() error {
	n := (len(dy.events) + batchEvents - 1) / batchEvents
	dy.bodies = make([][]byte, n)
	errs := make([]error, n)
	parallel(n, func(i int) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, e := range batchOf(dy.events, i) {
			if err := enc.Encode(e); err != nil {
				errs[i] = err
				return
			}
		}
		dy.bodies[i] = buf.Bytes()
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("encode day %v: %w", dy.d, err)
		}
	}
	return nil
}

// batchOf returns the i-th batchEvents-sized slice of events.
func batchOf(events []daemon.Event, i int) []daemon.Event {
	lo := i * batchEvents
	return events[lo:min(lo+batchEvents, len(events))]
}

func batches(events []daemon.Event) int { return (len(events) + batchEvents - 1) / batchEvents }

// closeBatch feeds a closed day to the batch pipeline's extractor.
func (ds *dataset) closeBatch(dy *day) error {
	if err := ds.batch.Table().EnsureDay(dy.d); err != nil {
		return err
	}
	return ds.batch.Consume(dy.d, dy.certs)
}

// parallel runs f(0..n-1) over GOMAXPROCS goroutines in interleaved
// stripes. Only untimed work uses it.
func parallel(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}
