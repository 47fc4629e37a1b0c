// Command qpgcbench regenerates the tables and figures of the paper's
// experimental evaluation (Section 6).
//
// Usage:
//
//	qpgcbench [-exp id[,id...]|all] [-scale f] [-seed n] [-pairs n]
//	          [-workers n] [-json path] [-list]
//
// Experiment ids: table1, table2, fig12a … fig12l. The default scale runs
// every experiment in seconds-to-minutes on a laptop; absolute timings are
// not comparable to the paper's 2012 testbed, but every qualitative shape
// (who wins, by what factor, where crossovers fall) should hold.
//
// -workers bounds the pool used by the non-timing sweeps (table1, table2,
// fig12d); timing experiments always run their measurements sequentially.
// -json additionally writes the results in machine-readable form (one
// record per experiment: id, title, header, rows, elapsed ns, config);
// its meta header records the git revision and CPU counts that produced
// the snapshot. BENCH_PAPER.json is that record for all fourteen ids at
// scale 1.0, seed 42. Systems-side numbers (store, server, replica, WAL)
// are measured by benchmark/ and BENCHMARK.json, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/profutil"
)

// jsonRecord is the machine-readable form of one experiment's result.
type jsonRecord struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedNs int64      `json:"elapsed_ns"`
}

// jsonMeta attributes a -json snapshot to the code revision and machine
// that produced it, so results stay comparable across PRs.
type jsonMeta struct {
	GitRevision string `json:"git_revision"`
	GitDirty    bool   `json:"git_dirty,omitempty"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
}

// jsonReport is the top-level structure written by -json.
type jsonReport struct {
	Meta    jsonMeta       `json:"meta"`
	Config  harness.Config `json:"config"`
	Results []jsonRecord   `json:"results"`
}

// gitRevision resolves the source revision: the VCS stamp embedded by the
// go tool when available (e.g. installed binaries), otherwise the git
// working tree the command is run from; "unknown" when neither exists.
func gitRevision() (rev string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			rev = strings.TrimSpace(string(out))
			if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
				dirty = len(strings.TrimSpace(string(out))) > 0
			}
		}
	}
	if rev == "" {
		rev = "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	return rev, dirty
}

func buildMeta() jsonMeta {
	rev, dirty := gitRevision()
	return jsonMeta{
		GitRevision: rev,
		GitDirty:    dirty,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
	}
}

// checkFlags rejects configurations whose tables would be meaningless: a
// non-positive scale builds degenerate datasets and zero pairs leaves
// every timing loop empty, yet both used to print a full table and exit 0.
func checkFlags(scale float64, pairs, workers int) error {
	switch {
	case !(scale > 0):
		return fmt.Errorf("-scale must be > 0, got %v", scale)
	case pairs < 1:
		return fmt.Errorf("-pairs must be >= 1, got %d", pairs)
	case workers < 0:
		return fmt.Errorf("-workers must be >= 0, got %d", workers)
	}
	return nil
}

func main() {
	var (
		exp      = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (1.0 = DESIGN.md sizes)")
		seed     = flag.Int64("seed", 42, "workload seed")
		pairs    = flag.Int("pairs", 200, "reachability query pairs per dataset")
		workers  = flag.Int("workers", 0, "worker pool size for non-timing sweeps (0 = GOMAXPROCS)")
		jsonPath = flag.String("json", "", "also write machine-readable results to this path")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	)
	flag.Parse()
	if err := checkFlags(*scale, *pairs, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "qpgcbench: %v\n", err)
		os.Exit(2)
	}

	stopCPU, err := profutil.StartCPU(*cpuProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qpgcbench: %v\n", err)
		os.Exit(1)
	}
	// LIFO: the heap profile is written first, then the CPU profile is
	// finalized, and neither error path can skip the other.
	defer func() {
		if err := stopCPU(); err != nil {
			fmt.Fprintf(os.Stderr, "qpgcbench: cpu profile: %v\n", err)
			return
		}
		if *cpuProf != "" {
			fmt.Fprintf(os.Stderr, "qpgcbench: wrote CPU profile to %s\n", *cpuProf)
		}
	}()
	defer func() {
		if err := profutil.WriteHeap(*memProf); err != nil {
			fmt.Fprintf(os.Stderr, "qpgcbench: heap profile: %v\n", err)
			return
		}
		if *memProf != "" {
			fmt.Fprintf(os.Stderr, "qpgcbench: wrote heap profile to %s\n", *memProf)
		}
	}()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := harness.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Pairs = *pairs
	cfg.Workers = *workers

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, ok := harness.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "qpgcbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	report := jsonReport{Meta: buildMeta(), Config: cfg}
	for _, e := range selected {
		start := time.Now()
		tab := e.Run(cfg)
		elapsed := time.Since(start)
		tab.Fprint(os.Stdout)
		report.Results = append(report.Results, jsonRecord{
			ID:        tab.ID,
			Title:     tab.Title,
			Header:    tab.Header,
			Rows:      tab.Rows,
			Notes:     tab.Notes,
			ElapsedNs: elapsed.Nanoseconds(),
		})
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(&report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "qpgcbench: marshal results: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "qpgcbench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "qpgcbench: wrote %s\n", *jsonPath)
	}
}
