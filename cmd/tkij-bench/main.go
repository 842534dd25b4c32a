// Command tkij-bench regenerates the paper's evaluation tables and
// figures (§4). Each experiment prints the same rows/series the paper
// plots. Serving-layer numbers are not measured here: they come from
// `bash benchmark/run.sh` (see benchmark/README.md and docs/PERF.md).
//
// Usage:
//
//	tkij-bench -exp all            # every experiment at default scale
//	tkij-bench -exp fig11          # one experiment
//	tkij-bench -exp fig8 -scale 2  # larger datasets
//	tkij-bench -exp fig8 -json     # same, as a JSON array of tables
//
// `tkij-bench -h` lists the experiment ids; they are registered once,
// in internal/experiments.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tkij/internal/experiments"
	"tkij/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(experiments.IDs(), ", ")+", all)")
		scale    = flag.Float64("scale", 1, "dataset scale multiplier")
		reducers = flag.Int("reducers", 24, "reduce tasks")
		quiet    = flag.Bool("q", false, "suppress progress logging")
		asJSON   = flag.Bool("json", false, "emit tables as a JSON array instead of aligned text")
		metrics  = flag.String("metrics-addr", "", "serve the debug/metrics HTTP endpoint (/metrics, /healthz, /debug/pprof) while the experiments run")
	)
	flag.Parse()

	if *metrics != "" {
		// Process-wide registry + pprof; useful for profiling a long
		// benchmark run. No engine/server bridges — experiments build and
		// discard many engines internally.
		srv, err := obs.Serve(*metrics, obs.ServeOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "tkij-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tkij-bench: debug/metrics endpoint on http://%s/metrics\n", srv.Addr())
	}

	cfg := experiments.Config{Scale: *scale, Reducers: *reducers}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	// Ctrl-C cancels the run cleanly instead of tearing mid-experiment;
	// the context flows through every engine Execute below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tables, err := experiments.ByID(ctx, *exp, cfg)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tkij-bench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "tkij-bench:", err)
		os.Exit(1)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(os.Stderr, "tkij-bench:", err)
			os.Exit(1)
		}
		return
	}
	for _, t := range tables {
		t.Fprint(os.Stdout)
	}
}
