// Command benchmark is the repository's fixed benchmark: four named
// workloads over the compress → maintain → publish → log → ship → serve
// pipeline, nine end-to-end metrics measured with tracing off, and a
// traced pass that times each layer alone on the workload's own inputs.
// See README.md; ../BENCHMARK.json names every workload and metric.
//
// Run it from this directory (run.sh does):
//
//	benchmark --workload write-mono --seed 1 --seconds 28 --trace 0
//	benchmark -suite a.json -runs 5      # every workload, several seeds
//	benchmark -agree a.json b.json       # do two result sets agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outDir holds the runs' scratch directories and the span files,
// relative to the benchmark's own directory.
const outDir = "out"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see ../BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "every input is drawn from this seed")
		secs    = flag.Float64("seconds", nominalSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = traced pass: print the per-layer metrics and write out/trace-<workload>.json")
		suite   = flag.String("suite", "", "run every workload -runs times and write the result set to this file")
		runs    = flag.Int("runs", 5, "with -suite: runs per workload, on seeds -seed, -seed+1, ...")
		agreeOn = flag.Bool("agree", false, "compare the two result sets named as arguments under ../BENCHMARK.json's bounds")
	)
	flag.Parse()
	switch {
	case *agreeOn:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree takes two result-set files"))
		}
		lines, err := agree("../BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
		if len(lines) > 0 {
			os.Exit(1)
		}
	case *suite != "":
		if err := runSuite(*suite, *runs, *seed, *secs); err != nil {
			fatal(err)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, notes, err := runOnce(w, *seed, *secs, *trace != 0)
		for _, n := range notes {
			fmt.Fprintln(os.Stderr, n)
		}
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOnce performs one run and shapes its result: the end-to-end metrics,
// or with traced the per-layer ones.
func runOnce(w workload, seed int64, secs float64, traced bool) (result, []string, error) {
	var (
		r    *run
		vals map[string]float64
		defs []metricDef
		err  error
	)
	if traced {
		r, vals, err = executeTraced(w, seed, secs, outDir)
		defs = perLayer
	} else {
		r, vals, err = execute(w, seed, secs, outDir)
		defs = endToEnd
	}
	if err != nil {
		var notes []string
		if r != nil {
			notes = r.notes
		}
		return result{}, notes, err
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	res.Correct = res.Failed == 0
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res, r.notes, nil
}
