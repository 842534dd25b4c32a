// Command benchmark is the serving benchmark of the TKIJ engine: four
// workloads driven through the public tkij front doors, every answer
// checked, end-to-end metrics from an untraced run and per-layer metrics
// from a separate traced run. README.md says how to run and read it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	dir      string
	jsonOut  string
	aa       int
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result as the last line (the driver's mode); empty runs every workload in a child process each")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generator: 1 is the default, 2 the held-out seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "sizes the fixed op script: about this long at the commit that defined the benchmark")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced single-client run and reports the per-layer metrics")
	flag.BoolVar(&o.quick, "quick", false, "miniature sizes, for the smoke test")
	flag.StringVar(&o.dir, "dir", ".bench_build/run", "directory for the fixture snapshot and the trace file")
	flag.StringVar(&o.jsonOut, "json", "", "with no -workload: also write every result to this file")
	flag.IntVar(&o.aa, "aa", 0, "with no -workload: run this many alternating sets of the same binary and print the spread of every metric")
	flag.BoolVar(&o.compare, "compare", false, "compare two -json files given as arguments")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two files")
		}
		return compareFiles(args[0], args[1])
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	if o.workload == "" {
		return runAll(o)
	}
	wl := workloadByName(o.workload)
	if wl == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	sc := fullScale
	if o.quick {
		sc = quickScale
	}
	var (
		out *outcome
		err error
	)
	if o.trace == 1 {
		out, err = runTraced(wl, sc, o.seed, o.seconds, o.dir)
	} else {
		out, err = runEndToEnd(wl, sc, o.seed, o.seconds, o.dir)
	}
	if err != nil {
		return err
	}
	out.print(os.Stderr)
	for _, v := range []any{out.row(), out.result()} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}
