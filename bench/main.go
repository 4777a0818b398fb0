// Command bench is the repository's one benchmark: it prices the two
// paths a user of OASIS feels — checking a credential by callback to its
// issuer, and a revocation reaching every tier — end to end with real
// oasisd and oasisgw processes on real sockets, and layer by layer from
// a traced in-process twin of the same topology. See README.md.
//
//	go run ./bench --workload edge_hot --seed 1 --seconds 20 --trace 0
//	go run ./bench -quick                         # every workload, both modes, smoke scale
//	go run ./bench -runs 10 -trace 0 -out a.json  # a result set for -compare
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// outRoot is where logs, traces, scratch state and result files go.
const outRoot = "bench/out"

// quickSeconds is the measured time of a -quick run.
const quickSeconds = 4

func main() {
	var (
		workload = flag.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames)+"); empty runs all")
		seed     = flag.Uint64("seed", 1, "workload seed: same seed, same inputs")
		seconds  = flag.Int("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0 = untraced multi-process run, 1 = traced in-process run, -1 = both")
		quick    = flag.Bool("quick", false, "smoke scale: every code path and check, numbers not comparable")
		runs     = flag.Int("runs", 1, "repeat the selected runs this many times, on seed, seed+1, ...")
		out      = flag.String("out", "", "append every run's result to this result-set file")
		compare  = flag.Bool("compare", false, "compare two result sets: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare a.json b.json"))
		}
		os.Exit(compareSets(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	sc := fullScale
	if *quick {
		sc = quickScale
		*seconds = quickSeconds
	}
	selected := workloadNames
	if *workload != "" {
		if !spec.hasWorkload(*workload) {
			fatal(fmt.Errorf("unknown workload %q, want one of %v", *workload, workloadNames))
		}
		selected = []string{*workload}
	}
	modes := []bool{false, true}
	if *trace >= 0 {
		modes = []bool{*trace == 1}
	}

	// More than one run: each runs in a process of its own, exactly as the
	// driver runs them. Runs sharing a generator process are not
	// independent — the later ones inherit its heap and scheduler state,
	// and measured 10–30% slower than the first.
	if *runs > 1 || len(selected) > 1 || len(modes) > 1 {
		os.Exit(runSuite(selected, modes, *seed, *runs, *seconds, *quick, *out))
	}

	cfg := runConfig{Workload: selected[0], Seed: *seed, Seconds: *seconds, Quick: *quick, Trace: modes[0], Scale: sc}
	res, err := runOne(cfg, spec)
	if err != nil {
		fatal(fmt.Errorf("%s (trace=%v, seed %d): %w", cfg.Workload, cfg.Trace, cfg.Seed, err))
	}
	res.report(os.Stdout, spec)
	if err := writeResult(res); err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runSuite re-executes this binary once per (seed, workload, mode) and
// returns the exit code: non-zero when any run failed.
func runSuite(selected []string, modes []bool, seed uint64, runs, seconds int, quick bool, out string) int {
	code := 0
	for r := 0; r < runs; r++ {
		for _, wl := range selected {
			for _, traced := range modes {
				args := []string{
					"-workload", wl, "-seed", strconv.FormatUint(seed+uint64(r), 10),
					"-seconds", strconv.Itoa(seconds), "-trace", "0",
				}
				if traced {
					args[len(args)-1] = "1"
				}
				if quick {
					args = append(args, "-quick")
				}
				if out != "" {
					args = append(args, "-out", out)
				}
				cmd := exec.Command(os.Args[0], args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s (trace=%v, seed %d): %v\n", wl, traced, seed+uint64(r), err)
					code = 1
				}
			}
		}
	}
	return code
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runOne performs one run under a harness that guarantees no child
// process or scratch directory survives it.
func runOne(cfg runConfig, spec *benchSpec) (result, error) {
	h, err := newHarness(filepath.Join(outRoot, cfg.Workload))
	if err != nil {
		return result{}, err
	}
	var m *measured
	var chk *checker
	err = h.guard(func() error {
		if cfg.Trace {
			m, chk, err = runTraced(cfg, h)
			return err
		}
		binDir, err := buildDaemons()
		if err != nil {
			return err
		}
		m, chk, err = runUntraced(cfg, h, binDir)
		return err
	})
	if err != nil {
		return result{}, err
	}
	return newResult(cfg, spec, m, chk, h.outDir), nil
}
