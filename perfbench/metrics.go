package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of gridvo sees, emitted by every
// workload's untraced run and compared between commits; each is positive
// on every workload. The time bounds are the widest allowed because the
// machine the benchmark was tuned on drifts 5–25% between identical runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.1},
	{"live_heap_mb", "MB", "lower", 0.1},
}

// reportOnly are end-to-end numbers printed by name with every run but
// left out of the final JSON line: each is undefined or zero on some
// workload (a p99 needs 1000 ops; trust deltas select no VO), or, for
// alloc_mb_per_op, jumps with the number of collections in the phase
// (each drains the solver's pooled scratch, 5.5 MB on fig9-sweep, so a
// sweep allocates 14.6 or 20.1 MB) where allocs_per_op holds still.
var reportOnly = []metricDef{
	{"alloc_mb_per_op", "MB", "lower", 0},
	{"op_p99_ms", "ms", "lower", 0},
	{"op_tail_ms", "ms", "lower", 0},
	{"failed_frac", "fraction", "lower", 0},
	{"certified_frac", "fraction", "higher", 0},
	{"vo_payoff_mean", "payoff", "higher", 0},
}

// perLayer are the traced run's metrics, named after the package whose
// public functions they time or count. Every workload emits every one; a
// layer a workload never calls reports 0 (see ledger.json for the map).
var perLayer = []metricDef{
	{"sim.new_env_ms", "ms", "lower", 0},
	{"sim.build_scenario_ms", "ms", "lower", 0},
	{"sim.feasibility_retries", "count", "lower", 0},
	{"sim.self_ms", "ms", "lower", 0},

	{"assign.solves", "count", "lower", 0},
	{"assign.nodes", "count", "lower", 0},
	{"assign.busy_ms", "ms", "lower", 0},
	{"assign.solve_ms_p50", "ms", "lower", 0},
	{"assign.ns_per_node", "ns", "lower", 0},
	{"assign.certified_frac", "fraction", "higher", 0},
	{"assign.budget_hit_frac", "fraction", "lower", 0},
	{"assign.gap_max", "fraction", "lower", 0},
	{"assign.seed_accepted_frac", "fraction", "higher", 0},

	{"mechanism.run_ms", "ms", "lower", 0},
	{"mechanism.self_ms", "ms", "lower", 0},
	{"mechanism.iterations", "count", "lower", 0},
	{"mechanism.coalition_hit_rate", "fraction", "higher", 0},
	{"mechanism.warm_start_rate", "fraction", "higher", 0},
	{"mechanism.power_iterations", "count", "lower", 0},
	{"mechanism.spec_build_ms", "ms", "lower", 0},
	{"mechanism.engine_cache_hit_rate", "fraction", "higher", 0},
	{"mechanism.engine_cache_hits", "count", "higher", 0},
	{"mechanism.engine_cache_misses", "count", "lower", 0},
	{"mechanism.vo_payoff_mean", "payoff", "higher", 0},

	{"reputation.global_ms", "ms", "lower", 0},
	{"reputation.solves", "count", "lower", 0},
	{"reputation.iterations", "count", "lower", 0},
	{"reputation.ms_per_iteration", "ms", "lower", 0},
	{"reputation.warm_frac", "fraction", "higher", 0},
	{"reputation.self_ms", "ms", "lower", 0},

	{"trust.apply_delta_ms", "ms", "lower", 0},
	{"trust.normalize_ms", "ms", "lower", 0},
	{"trust.edges", "count", "lower", 0},
	{"trust.self_ms", "ms", "lower", 0},

	{"matrix.tmulvec_ms", "ms", "lower", 0},
	{"matrix.tmulvec_calls", "count", "lower", 0},
	{"matrix.bytes_per_iteration", "bytes", "lower", 0},

	{"server.form.handler_ms_p50", "ms", "lower", 0},
	{"server.form.overhead_ms_p50", "ms", "lower", 0},
	{"server.jobs.queue_ms_p50", "ms", "lower", 0},
	{"server.jobs.run_ms_p50", "ms", "lower", 0},
	{"server.jobs.overhead_ms_p50", "ms", "lower", 0},
	{"server.trust.handler_ms_p50", "ms", "lower", 0},
	{"server.trust.overhead_ms_p50", "ms", "lower", 0},
	{"server.shed_frac", "fraction", "lower", 0},
	{"server.jobs_deduped", "count", "higher", 0},
	{"server.self_ms", "ms", "lower", 0},
	{"http.self_ms", "ms", "lower", 0},

	{"trace.ops", "count", "higher", 0},
	{"trace.overhead_ms_per_op", "ms", "lower", 0},
}

// validName reports whether s is a legal metric or workload name: it
// starts with a letter or digit and holds at most 64 letters, digits,
// '_', '.' and '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if i == 0 && !alnum {
			return false
		}
		if !alnum && r != '_' && r != '.' && r != '-' {
			return false
		}
	}
	return true
}

// metricValue is one entry of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the defs' values out of vals, failing on a missing
// or non-finite value so a run never prints a partial result.
func selectMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
