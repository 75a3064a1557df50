package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"sgxelide/internal/obs"
)

// Scenario is one named benchmark beyond the paper's tables. Its sizes
// are fixed; the package tests run the same code scaled down.
type Scenario struct {
	Name string
	Out  string // default artifact path: BENCH_<name>.json
	run  func(env *Env) (fmt.Stringer, error)
}

// artifactWriter is a result that writes its own artifacts rather than
// one JSON document.
type artifactWriter interface {
	writeArtifacts(out string) error
}

// scenarios is the table elide-bench -scenario NAME runs from.
var scenarios = map[string]*Scenario{
	"restore": {run: func(env *Env) (fmt.Stringer, error) { return restoreBench(env, restoreFull) }},
	"load":    {run: func(env *Env) (fmt.Stringer, error) { return loadBench(env, loadFull) }},
	"resume":  {run: func(env *Env) (fmt.Stringer, error) { return resumeBench(env, resumeFull) }},
	"chaos":   {run: func(env *Env) (fmt.Stringer, error) { return chaosBench(env, chaosFull) }},
	"churn":   {run: func(env *Env) (fmt.Stringer, error) { return churnBench(env, churnFull) }},
	"phases":  {run: func(env *Env) (fmt.Stringer, error) { return phasesBench(env, phasesIters) }},
	"obs":     {Out: "BENCH_trace.jsonl", run: func(env *Env) (fmt.Stringer, error) { return obsDemo(env) }},
}

func init() {
	for name, s := range scenarios {
		s.Name = name
		if s.Out == "" {
			s.Out = "BENCH_" + name + ".json"
		}
	}
}

// ScenarioNames lists the registered scenarios, sorted.
func ScenarioNames() []string {
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// LookupScenario returns the named scenario, or an error that lists the
// registered ones.
func LookupScenario(name string) (*Scenario, error) {
	if s, ok := scenarios[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("bench: unknown scenario %q (registered: %s)", name, strings.Join(ScenarioNames(), ", "))
}

// Run runs the scenario on env and writes its artifact to out, normally
// s.Out. The result's String is the human summary.
func (s *Scenario) Run(env *Env, out string) (fmt.Stringer, error) {
	res, err := s.run(env)
	if err != nil {
		return nil, err
	}
	if w, ok := res.(artifactWriter); ok {
		return res, w.writeArtifacts(out)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(out, append(data, '\n'), 0o644)
}

// LatencySummary is the machine-readable slice of an obs histogram, in
// microseconds (the paper reports restore times in ms; transport
// operations land in the µs–ms range).
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	MinUs  float64 `json:"min_us"`
	MaxUs  float64 `json:"max_us"`
}

func summarize(h obs.HistogramSnapshot) LatencySummary {
	us := func(ns float64) float64 { return ns / 1e3 }
	return LatencySummary{
		Count:  h.Count,
		MeanUs: us(float64(h.Mean().Nanoseconds())),
		P50Us:  us(float64(h.P50Nanos)),
		P90Us:  us(float64(h.P90Nanos)),
		P99Us:  us(float64(h.P99Nanos)),
		MinUs:  us(float64(h.MinNanos)),
		MaxUs:  us(float64(h.MaxNanos)),
	}
}
