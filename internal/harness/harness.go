// Package harness drives the experimental evaluation of Section 6: one
// driver per table and figure of the paper, each producing a table in the
// paper's layout. The cmd/qpgcbench CLI and the repository-level
// testing.B benchmarks are thin wrappers around these drivers.
//
// Experiment ids: table1, table2, fig12a … fig12l (DESIGN.md has the
// per-experiment index). The package is a leaf over the paper's
// algorithms: systems-side measurements (store, server, replica, WAL)
// live in benchmark/ and BENCHMARK.json, not here.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config controls experiment scale. The defaults reproduce the shapes of
// the paper's figures in seconds-not-hours on a laptop.
type Config struct {
	// Seed makes all workloads deterministic.
	Seed int64
	// Scale multiplies the registry dataset sizes (1.0 = DESIGN.md sizes,
	// which are already ~20× below the paper's).
	Scale float64
	// Pairs is the number of reachability query pairs sampled per dataset.
	Pairs int
	// MatchRounds repeats each Match call to stabilize timings.
	MatchRounds int
	// Workers bounds the worker pool used by experiments whose
	// per-dataset work involves no wall-clock timing (the compression
	// ratio and memory sweeps): 0 means GOMAXPROCS, 1 forces sequential.
	// Timing experiments always run sequentially regardless, so
	// concurrent load cannot pollute measurements.
	Workers int
}

// DefaultConfig returns the standard experiment configuration.
func DefaultConfig() Config {
	return Config{Seed: 42, Scale: 1.0, Pairs: 200, MatchRounds: 1}
}

// QuickConfig returns a drastically reduced configuration for unit tests
// and smoke runs.
func QuickConfig() Config {
	return Config{Seed: 42, Scale: 0.08, Pairs: 30, MatchRounds: 1}
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is a named driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) *Table
}

// Experiments returns all drivers in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Reachability preserving compression: compression ratio", Table1},
		{"table2", "Pattern preserving compression: compression ratio", Table2},
		{"fig12a", "Reachability query time on G vs Gr (BFS/BIBFS)", Fig12a},
		{"fig12b", "Pattern query time on real-life graphs", Fig12b},
		{"fig12c", "Pattern query time on synthetic graphs (|L|=10 vs 20)", Fig12c},
		{"fig12d", "Memory cost: G, Gr, 2-hop(G), 2-hop(Gr)", Fig12d},
		{"fig12e", "incRCM vs compressR under edge insertions", Fig12e},
		{"fig12f", "incRCM vs compressR under edge deletions", Fig12f},
		{"fig12g", "incPCM vs compressB vs IncBsim under batch updates", Fig12g},
		{"fig12h", "Incremental querying: IncBMatch on G vs incPCM+Match on Gr", Fig12h},
		{"fig12i", "RCr under densification (synthetic)", Fig12i},
		{"fig12j", "RCr under power-law growth (real-life-like)", Fig12j},
		{"fig12k", "PCr under densification (synthetic)", Fig12k},
		{"fig12l", "PCr under power-law growth (real-life-like)", Fig12l},
	}
}

// ByID returns the driver with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// forEachLimit runs fn(0..n-1) on a bounded pool of workers (<= 0 means
// GOMAXPROCS). Workers pull indexes from a shared counter, so skew between
// dataset sizes does not idle the pool. fn must write only to its own
// index's result slot.
func forEachLimit(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// timeIt measures the wall time of fn.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// bestOf runs fn n times and returns the fastest run, damping scheduler
// noise on microsecond-scale measurements.
func bestOf(n int, fn func()) time.Duration {
	best := timeIt(fn)
	for i := 1; i < n; i++ {
		if d := timeIt(fn); d < best {
			best = d
		}
	}
	return best
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
