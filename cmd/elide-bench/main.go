// elide-bench regenerates the SgxElide paper's evaluation: Table 1
// (benchmark and sanitizer statistics), Table 2 (sanitize/restore times,
// mean ± σ over -iters runs), and Figures 3 and 4 (normalized end-to-end
// overhead with remote and local data).
//
// It also runs the named benchmark scenarios beyond the paper, each
// writing one machine-readable artifact (BENCH_<name>.json by default):
//
//	restore  concurrent TCP restores of several enclaves from one server
//	load     open-loop load, pipelined vs the paper's three-flight protocol
//	resume   kill the attested replica, resume every session on its peer
//	chaos    restores through replica kills, restarts and injected faults
//	churn    restores through a gossip fleet that loses and gains members
//	phases   per-phase restore latency breakdown, both hops
//	obs      one traced, audited restore (BENCH_trace.jsonl, BENCH_audit.jsonl)
//
// Usage:
//
//	elide-bench -all
//	elide-bench -table2 -iters 10
//	elide-bench -scenario load
//	elide-bench -scenario churn -out churn.json
//	elide-bench -validate-audit BENCH_audit.jsonl
//
// Exit status is 2 for a usage error (including an unknown scenario) and
// 1 for a failed run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sgxelide/internal/bench"
	"sgxelide/internal/obs"
)

var (
	t1    = flag.Bool("table1", false, "reproduce Table 1")
	t2    = flag.Bool("table2", false, "reproduce Table 2")
	f3    = flag.Bool("fig3", false, "reproduce Figure 3 (remote data)")
	f4    = flag.Bool("fig4", false, "reproduce Figure 4 (local data)")
	all   = flag.Bool("all", false, "reproduce everything, then run the "+strings.Join(allScenarios, ", ")+" scenarios")
	iters = flag.Int("iters", 10, "runs per measurement (the paper uses 10)")

	scenario = flag.String("scenario", "", "run one benchmark scenario: "+strings.Join(bench.ScenarioNames(), ", "))
	out      = flag.String("out", "", "artifact path for -scenario (default BENCH_<name>.json)")

	validateAudit = flag.String("validate-audit", "", "validate an audit JSONL file against the current schema and exit")
)

// allScenarios are the scenarios -all runs after the paper's tables.
var allScenarios = []string{"restore", "chaos", "churn", "resume", "phases"}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run parses args, runs what they select, and returns the exit status.
func run(args []string) int {
	if err := flag.CommandLine.Parse(args); err != nil {
		return 2
	}
	if *validateAudit != "" {
		if err := validate(*validateAudit); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	outs := map[string]string{}
	var names []string
	if *all {
		*t1, *t2, *f3, *f4 = true, true, true, true
		names = append(names, allScenarios...)
	}
	if *scenario != "" {
		names = append(names, *scenario)
		outs[*scenario] = *out
	}
	scenarios := make([]*bench.Scenario, len(names))
	for i, name := range names {
		s, err := bench.LookupScenario(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		scenarios[i] = s
	}
	if !*t1 && !*t2 && !*f3 && !*f4 && len(scenarios) == 0 {
		flag.Usage()
		return 2
	}
	if err := runAll(scenarios, outs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

func runAll(scenarios []*bench.Scenario, outs map[string]string) error {
	env, err := bench.NewEnv()
	if err != nil {
		return err
	}
	if *t1 {
		rows, err := bench.Table1(env)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable1(rows))
	}
	if *t2 {
		fmt.Printf("(measuring Table 2, %d iterations per cell...)\n", *iters)
		rows, err := bench.Table2(env, *iters)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderTable2(rows))
	}
	if *f3 {
		fmt.Printf("(measuring Figure 3, %d runs per bar...)\n", *iters)
		rows, err := bench.Figures(env, false, *iters)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFigure("Figure 3. Overhead with remote data (w/ SgxElide vs w/ SGX).", rows))
	}
	if *f4 {
		fmt.Printf("(measuring Figure 4, %d runs per bar...)\n", *iters)
		rows, err := bench.Figures(env, true, *iters)
		if err != nil {
			return err
		}
		fmt.Println(bench.RenderFigure("Figure 4. Overhead with local data (w/ SgxElide vs w/ SGX).", rows))
	}
	for _, s := range scenarios {
		fmt.Printf("(running the %s scenario...)\n", s.Name)
		path := outs[s.Name]
		if path == "" {
			path = s.Out
		}
		res, err := s.Run(env, path)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Println(res)
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// validate checks an audit JSONL file against the current schema.
func validate(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := obs.ValidateAuditJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w (%d events valid before the failure)", path, err, n)
	}
	fmt.Printf("%s: %d audit events, schema %d, all valid\n", path, n, obs.AuditSchema)
	return nil
}
