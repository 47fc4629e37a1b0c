package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// manifest is ../BENCHMARK.json.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// resultSet is what -suite writes and -agree reads: per workload, the
// end-to-end metrics of each run.
type resultSet struct {
	Seconds float64               `json:"seconds"`
	Runs    map[string][]suiteRun `json:"runs"`
}

type suiteRun struct {
	Seed    int64              `json:"seed"`
	Failed  int64              `json:"failed"`
	Metrics map[string]float64 `json:"metrics"`
}

// runSuite runs every workload runs times, on consecutive seeds, and
// writes the result set to path.
func runSuite(path string, runs int, seed int64, secs float64) error {
	set := resultSet{Seconds: secs, Runs: make(map[string][]suiteRun)}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			r, vals, err := execute(w, seed+int64(i), secs, outDir)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed+int64(i), err)
			}
			set.Runs[w.name] = append(set.Runs[w.name], suiteRun{Seed: seed + int64(i), Failed: r.failed, Metrics: vals})
			fmt.Fprintf(os.Stderr, "%s seed %d: failed %d\n", w.name, seed+int64(i), r.failed)
		}
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// agree applies the manifest's own bounds to two result sets of one
// commit and returns one line per (metric, workload) on which they
// disagree: a count marked exact that differs on a seed both sets ran, a
// run that failed, or medians further apart than the metric's bound.
func agree(manifestPath, pathA, pathB string) ([]string, error) {
	m, err := readManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	a, err := readResultSet(pathA)
	if err != nil {
		return nil, err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, w := range m.Workloads {
		ra, rb := a.Runs[w.Name], b.Runs[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			lines = append(lines, fmt.Sprintf("* @ %s: missing from a result set", w.Name))
			continue
		}
		for _, rs := range [][]suiteRun{ra, rb} {
			for _, r := range rs {
				if r.Failed != 0 {
					lines = append(lines, fmt.Sprintf("failed @ %s: %d operations failed on seed %d", w.Name, r.Failed, r.Seed))
				}
			}
		}
		for _, em := range m.EndToEnd {
			if exactCounts[em.Name] {
				for _, x := range ra {
					for _, y := range rb {
						if x.Seed == y.Seed && x.Metrics[em.Name] != y.Metrics[em.Name] {
							lines = append(lines, fmt.Sprintf("%s @ %s: exact count differs on seed %d: %v vs %v",
								em.Name, w.Name, x.Seed, x.Metrics[em.Name], y.Metrics[em.Name]))
						}
					}
				}
				continue
			}
			ma, mb := medianOf(ra, em.Name), medianOf(rb, em.Name)
			if ma <= 0 || mb <= 0 {
				lines = append(lines, fmt.Sprintf("%s @ %s: not positive: %v vs %v", em.Name, w.Name, ma, mb))
				continue
			}
			if gap := math.Abs(ma-mb) / math.Min(ma, mb); gap > em.Bound {
				lines = append(lines, fmt.Sprintf("%s @ %s: medians %.6g vs %.6g differ by %.1f%%, bound %.0f%%",
					em.Name, w.Name, ma, mb, gap*100, em.Bound*100))
			}
		}
	}
	return lines, nil
}

func medianOf(runs []suiteRun, metric string) float64 {
	xs := make([]float64, 0, len(runs))
	for _, r := range runs {
		xs = append(xs, r.Metrics[metric])
	}
	return median(xs)
}
