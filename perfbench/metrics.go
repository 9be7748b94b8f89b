package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one reported metric. The names are the benchmark's
// public vocabulary, declared once in BENCHMARK.json; later performance
// work cites them.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// catalog is what BENCHMARK.json declares: the workloads, the end-to-end
// metrics every untraced run reports, and the per-layer metrics every
// traced run reports.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalog(path string) (*catalog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(c.EndToEnd) == 0 || len(c.PerLayer) == 0 {
		return nil, fmt.Errorf("%s lists no end_to_end or no per_layer metrics", path)
	}
	return &c, nil
}

func (c *catalog) hasWorkload(name string) bool {
	for _, w := range c.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics is the list a run reports: per-layer when traced.
func (c *catalog) metrics(trace bool) []metricDef {
	if trace {
		return c.PerLayer
	}
	return c.EndToEnd
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic(fmt.Sprintf("perfbench: metric %q is not in BENCHMARK.json", name))
}

// e2eMetric records one end-to-end metric and prints it with note (the
// sample count behind a percentile, or where the number comes from).
func (b *bench) e2eMetric(name string, v float64, note string) {
	unit := unitOf(b.cat.EndToEnd, name)
	b.mu.Lock()
	b.e2e[name] = metric{Value: v, Unit: unit}
	b.mu.Unlock()
	fmt.Printf("  %-20s %14.4f %-9s %s\n", name, v, unit, note)
}

// layerMetric records one per-layer metric.
func (b *bench) layerMetric(name string, v float64, note string) {
	unit := unitOf(b.cat.PerLayer, name)
	b.mu.Lock()
	b.layers[name] = metric{Value: v, Unit: unit}
	b.layerNotes[name] = note
	b.mu.Unlock()
	fmt.Printf("  %-32s %14.4f %-8s %s\n", name, v, unit, note)
}
