// Command spanreport prints the per-layer self time of traced perfbench
// runs from their span exports:
//
//	go run ./spanreport ../.bench_build/perfbench-out/spans/*.jsonl
//	go run ./spanreport -base old.jsonl new.jsonl
//
// For each file it prints, per layer and then per span, the self time
// per client operation in microseconds and its share of the run's total.
// With -base, each row also shows the same workload's figure from the
// base export and the change, so two commits' traces can be compared.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// line is the union of the export's record kinds; raw spans are skipped.
type line struct {
	Kind     string  `json:"kind"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Ops      int64   `json:"ops"`
	Name     string  `json:"name"`
	Layer    string  `json:"layer"`
	Count    int     `json:"count"`
	SelfUS   float64 `json:"self_us"`
}

// run is one export: self time per client operation by layer and span.
type run struct {
	workload string
	seed     int64
	layers   map[string]float64
	spans    map[string]float64
	total    float64
}

func load(path string) (*run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := &run{layers: map[string]float64{}, spans: map[string]float64{}}
	var ops int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch l.Kind {
		case "run":
			r.workload, r.seed, ops = l.Workload, l.Seed, l.Ops
		case "span":
			r.layers[l.Layer] += l.SelfUS
			r.spans[l.Name] += l.SelfUS
			r.total += l.SelfUS
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if ops == 0 {
		return nil, fmt.Errorf("%s: no run header or no operations", path)
	}
	per := 1 / float64(ops)
	for k := range r.layers {
		r.layers[k] *= per
	}
	for k := range r.spans {
		r.spans[k] *= per
	}
	r.total *= per
	return r, nil
}

func keys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func table(title string, cur, base map[string]float64, total float64) {
	fmt.Printf("  %-34s %12s %7s", title, "self us/op", "share")
	if base != nil {
		fmt.Printf(" %12s %8s", "base us/op", "change")
	}
	fmt.Println()
	for _, k := range keys(cur) {
		fmt.Printf("  %-34s %12.3f %6.1f%%", k, cur[k], 100*cur[k]/total)
		if base != nil {
			if b, ok := base[k]; ok && b > 0 {
				fmt.Printf(" %12.3f %+7.1f%%", b, 100*(cur[k]-b)/b)
			} else {
				fmt.Printf(" %12s %8s", "-", "-")
			}
		}
		fmt.Println()
	}
}

func main() {
	basePath := flag.String("base", "", "span export to compare against (same workload)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: spanreport [-base old.jsonl] export.jsonl...")
		os.Exit(2)
	}
	var base *run
	if *basePath != "" {
		var err error
		if base, err = load(*basePath); err != nil {
			fmt.Fprintln(os.Stderr, "spanreport:", err)
			os.Exit(1)
		}
	}
	for _, path := range flag.Args() {
		r, err := load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "spanreport:", err)
			os.Exit(1)
		}
		var bl, bs map[string]float64
		if base != nil && base.workload == r.workload {
			bl, bs = base.layers, base.spans
		}
		fmt.Printf("%s (seed %d): %.3f us of traced self time per client operation\n", r.workload, r.seed, r.total)
		table("layer", r.layers, bl, r.total)
		table("span", r.spans, bs, r.total)
		fmt.Println()
	}
}
