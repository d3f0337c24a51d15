// Command perfbench is gridvo's benchmark: three seeded workloads that
// drive the program from outside, through its public packages and the
// in-process gridvod HTTP API, and print one JSON result line.
//
//	go build -o perfbench . && ./perfbench --workload fig9-sweep --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root (run.sh builds and runs it). With
// --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// separate traced run carries the per-layer metrics. BENCHMARK.json at
// the root lists both sets; ledger.json in this directory describes them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runOpts) (*report, error){
	"fig9-sweep": func(ctx context.Context, o runOpts) (*report, error) {
		return runFig9(ctx, o, defaultFig9Params())
	},
	"form-service": func(ctx context.Context, o runOpts) (*report, error) {
		return runForm(ctx, o, defaultFormParams())
	},
	"trust-delta": func(ctx context.Context, o runOpts) (*report, error) {
		return runTrust(ctx, o, defaultTrustParams())
	},
}

// watchdog bounds a run: a hung run exits non-zero without a result.
const watchdog = 170 * time.Second

// outDir holds each run's full report and spans, inside the checkout.
const outDir = ".bench_build/perfbench"

func main() {
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", watchdog)
		os.Exit(3)
	})
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig9-sweep, form-service or trust-delta")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return errors.New("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	o := runOpts{Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, Trace: *traceFlag == 1}
	rep, err := wl(context.Background(), o)
	if err != nil {
		return err
	}
	res, err := finish(rep, o)
	if err != nil {
		return err
	}
	env := envStamp()
	printReport(stdout, rep, o, env)
	if err := writeFiles(rep, o, env); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// finish derives the report-only failure share and builds the result line.
func finish(rep *report, o runOpts) (*result, error) {
	if rep.Attempted < 1 {
		return nil, errors.New("no op was attempted")
	}
	rep.E2E["failed_frac"] = float64(rep.Failed()) / float64(rep.Attempted)
	defs, vals := endToEnd, rep.E2E
	if o.Trace {
		defs, vals = perLayer, rep.Layers
	}
	m, err := selectMetrics(defs, vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: rep.Failed() == 0, Attempted: rep.Attempted, Failed: rep.Failed(), Metrics: m}, nil
}

// printReport prints every metric by name with its unit, the env stamp,
// and the first failures, ahead of the JSON line.
func printReport(w io.Writer, rep *report, o runOpts, env map[string]any) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", rep.Workload, o.Seed, int(o.Seconds/time.Second), o.Trace)
	fmt.Fprintf(w, "  env: go=%v gomaxprocs=%v num_cpu=%v commit=%v source=%v\n",
		env["go_version"], env["gomaxprocs"], env["num_cpu"], env["git_commit"], env["source_hash"])
	params, _ := json.Marshal(rep.Params)
	fmt.Fprintf(w, "  params: %s\n", params)
	fmt.Fprintf(w, "  end-to-end (%d ops attempted, %d failed):\n", rep.Attempted, rep.Failed())
	for _, d := range append(append([]metricDef(nil), endToEnd...), reportOnly...) {
		note := ""
		if n, ok := rep.Notes[d.Name]; ok {
			note = " (" + n + ")"
		}
		if v, ok := rep.E2E[d.Name]; ok {
			fmt.Fprintf(w, "    %-22s %14.6g %s%s\n", d.Name, v, d.Unit, note)
		} else {
			fmt.Fprintf(w, "    %-22s %14s %s%s\n", d.Name, "n/a", d.Unit, note)
		}
	}
	if o.Trace {
		fmt.Fprintf(w, "  per-layer (traced run; %d spans):\n", len(rep.Spans))
		for _, d := range perLayer {
			fmt.Fprintf(w, "    %-34s %14.6g %s\n", d.Name, rep.Layers[d.Name], d.Unit)
		}
		self := selfTimes(rep.Spans)
		fmt.Fprintf(w, "  self time by layer, ms summed over the traced run's spans:")
		for _, l := range sortedKeys(self) {
			fmt.Fprintf(w, " %s=%.6g", l, self[l])
		}
		fmt.Fprintln(w)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// writeFiles stores the run's full report and its spans under outDir.
func writeFiles(rep *report, o runOpts, env map[string]any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.Trace {
		trace = 1
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", rep.Workload, o.Seed, trace))
	doc := map[string]any{
		"workload": rep.Workload, "seed": o.Seed, "seconds": int(o.Seconds / time.Second), "trace": o.Trace,
		"env": env, "params": rep.Params, "attempted": rep.Attempted, "failed": rep.Failed(),
		"failures": rep.Failures, "end_to_end": rep.E2E, "notes": rep.Notes, "per_layer": rep.Layers,
		"spans": len(rep.Spans),
	}
	if err := writeJSON(base+".json", doc); err != nil {
		return err
	}
	if o.Trace {
		return writeJSON(base+"-spans.json", rep.Spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
