package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON holds the exact counters of the seed-1 traced run of every
// workload at the default sizes. A run that differs does not fail: it
// reports how many counters moved (bench.counts_changed) and which, so a
// later change that legitimately alters a plan or a strategy is visible
// rather than blocked.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed      int64                  `json:"seed"`
	Sizes     string                 `json:"sizes"`
	Workloads map[string]goldenEntry `json:"workloads"`
}

type goldenEntry struct {
	Counts   map[string]float64 `json:"counts"`
	Strategy string             `json:"strategy"` // the stream driver's per-batch strategy sequence
}

// goldenCounters are the per-layer metrics that are counts made by the
// program and repeat exactly for a given seed.
var goldenCounters = []string{
	"sparse.mul_ops", "core.mfbf_iters", "core.mfbr_iters", "core.batch_ops", "core.dist_iters",
	"machine.bytes", "machine.msgs", "machine.flops",
	"spgemm.plan_p1", "spgemm.plan_p2", "spgemm.plan_p3",
}

func goldenOf(l map[string]metric, strategy string) goldenEntry {
	e := goldenEntry{Counts: map[string]float64{}, Strategy: strategy}
	for _, name := range goldenCounters {
		e.Counts[name] = l[name].Value
	}
	return e
}

// goldenDiff compares a traced run's counters with the recorded ones. It
// only applies to the recorded seed and sizes; any other run reports 0.
func goldenDiff(workload string, seed int64, sz sizes, l ledger, strategy string) (int, []string) {
	var gf goldenFile
	if err := json.Unmarshal(goldenJSON, &gf); err != nil || gf.Seed != seed || gf.Sizes != fmt.Sprint(sz) {
		return 0, nil
	}
	want, ok := gf.Workloads[workload]
	if !ok {
		return 0, nil
	}
	var diff []string
	for _, name := range goldenCounters {
		//lint:allow floateq counters are integers the program counted; any difference is a change
		if got := l[name].Value; got != want.Counts[name] {
			diff = append(diff, fmt.Sprintf("%s: %v, recorded %v", name, got, want.Counts[name]))
		}
	}
	if strategy != want.Strategy {
		diff = append(diff, fmt.Sprintf("strategy: %s, recorded %s", strategy, want.Strategy))
	}
	return len(diff), diff
}
