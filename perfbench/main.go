// Command perfbench is the repository's end-to-end benchmark. It drives
// the engine through its public API from one client goroutine on one of
// three workloads, checks every output against an oracle, and prints one
// JSON result line:
//
//	perfbench -workload ipcap-plain -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics BENCHMARK.json
// lists; with -trace 1 the run attaches the engine's obs counters and
// tracer plus the benchmark's own spans, and the result carries the
// per-layer metrics instead. NOTES.md says why each workload exists and
// which per-layer metric should move which end-to-end one.
//
// Before the result line the command prints two more JSON lines: "host"
// (the machine the figures belong to, with an fsync probe of the work
// directory) and "report" (every metric the workload defines, including
// the workload-specific ones BENCHMARK.json cannot gate because each
// gated metric must exist on every workload).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what a workload receives: its seed, its time budget, whether
// this is the traced run, and whether to run at the tiny size of the
// benchmark's own test.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	workdir string // scratch space for durable directories
}

// outcome is what a workload returns. Operations that failed and oracle
// mismatches both count in failed; mismatches also clear correct.
type outcome struct {
	attempted  int64
	failed     int64
	mismatches []string
	report     map[string]metric // every metric the workload defines
	layers     map[string]metric // per-layer metrics, traced runs only
	spans      *spanTracer       // traced runs only
}

func (o *outcome) mismatch(format string, args ...any) {
	o.failed++
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64, unit string) {
	o.report[name] = metric{v, unit}
}

// endToEnd names the gated metrics every workload reports; they are
// BENCHMARK.json's end_to_end list.
var endToEnd = []string{"setup_s", "ops_per_s", "write_p50_us", "heap_bytes_per_tuple"}

var workloads = map[string]func(config) (*outcome, error){
	"ipcap-plain":      runIpcap,
	"flows-replicated": runFlows,
	"graph-sharded":    runGraph,
}

func main() {
	name := flag.String("workload", "", "workload: ipcap-plain, flows-replicated or graph-sharded")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for span exports and temporary files")
	flag.Parse()

	res, err := run(*name, config{seed: *seed, seconds: *seconds, trace: *trace == 1}, *out)
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

// run executes one workload and builds its contract line, printing the
// host and report lines on the way.
func run(name string, cfg config, out string) (*result, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg.workdir = work

	host, err := probeHost(work)
	if err != nil {
		return nil, err
	}
	if err := printLine("host", host); err != nil {
		return nil, err
	}

	o, err := wl(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, m := range o.mismatches {
		fmt.Fprintln(os.Stderr, "perfbench: oracle mismatch:", m)
	}
	o.set("fail_ratio", float64(o.failed)/float64(max(o.attempted, 1)), "ratio")
	if err := printLine("report", map[string]any{"workload": name, "seed": cfg.seed, "metrics": o.report}); err != nil {
		return nil, err
	}

	res := &result{
		Correct:   len(o.mismatches) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if !cfg.trace {
		for _, k := range endToEnd {
			m, ok := o.report[k]
			if !ok {
				return nil, fmt.Errorf("%s did not measure %s", name, k)
			}
			res.Metrics[k] = m
		}
		return res, nil
	}
	res.Metrics = o.layers
	path := filepath.Join(out, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed))
	if err := o.spans.export(path, name, cfg.seed, host); err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return res, nil
}

// printLine writes one tagged JSON line ahead of the result line.
func printLine(tag string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Printf("%s %s\n", tag, b)
	return nil
}

// sortedKeys returns a map's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
