// Command perfbench is the repository's benchmark of the SgxElide restore
// path. It drives the real program through its public functions in one of
// three workloads and prints one JSON result line. From the repository
// root:
//
//	python3 perfbench/run.py --workload cold-restore --seed 1 --seconds 30 --trace 0
//
// run.py builds this module and runs it with the working directory at the
// repository root. With -trace 0 the result carries the end-to-end
// metrics, measured with tracing off. With -trace 1 the run measures
// untraced for half the time and then traced for the other half; the
// result carries the per-layer metrics taken from the benchmark's own
// spans, plus the tracing overhead. See README.md.
package main

import (
	"crypto/rand"
	"crypto/rsa"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is a set-up workload, ready to measure.
type env interface {
	// measure runs the workload for about d (at least one whole unit of
	// its operation sequence) with inputs from seed. A non-nil rec
	// records spans and yields per-layer metrics.
	measure(seed uint64, d time.Duration, rec *recorder) *phase
	close() error
}

// workload builds an env: the program set-up the benchmark times as
// setup_s.
type workload struct {
	name  string
	setup func(key *rsa.PrivateKey) (env, error)
}

var workloads = []workload{
	{"cold-restore", setupCold},
	{"app", setupApp},
	{"serve", setupServe},
}

// phase is what one measurement pass produced.
type phase struct {
	attempted, failed int
	errs              []string // the first few failures, for stderr

	e2e    metricSet // the gated end-to-end metrics (see BENCHMARK.json)
	report metricSet // the workload's own named metrics, printed for reading
	layers metricSet // per-layer metrics (traced passes only)

	// primary is the workload's headline latency (ms): the tracing
	// overhead is the traced pass's primary over the untraced pass's.
	primary float64
}

const maxLoggedErrs = 5

// fail counts one failed operation (a failed call or a failed gate).
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.errs) < maxLoggedErrs {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// merge adds another pass's counts and errors into p.
func (p *phase) merge(o *phase) {
	p.attempted += o.attempted
	p.failed += o.failed
	for _, e := range o.errs {
		if len(p.errs) < maxLoggedErrs {
			p.errs = append(p.errs, e)
		}
	}
}

// insnLedger holds the first exact instruction count seen per key and
// flags any later count that differs: interpreter work is deterministic,
// so a difference is nondeterminism in the program.
type insnLedger struct {
	first    map[string]uint64
	mismatch int
}

func newInsnLedger() *insnLedger { return &insnLedger{first: map[string]uint64{}} }

func (l *insnLedger) note(p *phase, key string, n uint64) {
	if was, ok := l.first[key]; !ok {
		l.first[key] = n
	} else if was != n {
		l.mismatch++
		p.fail("nondeterminism: %s retired %d instructions, earlier %d", key, n, was)
	}
}

// put writes every count into m as metric prefix.<key>.
func (l *insnLedger) put(m metricSet, prefix string) {
	for k, v := range l.first {
		m.set(prefix+"."+k, float64(v), "count")
	}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-restore, app or serve")
	seed := fs.Uint64("seed", 1, "workload seed: program order, data modes, serve mix and replicas")
	seconds := fs.Int("seconds", 30, "measured time per run")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench", "results"), "directory for the span dump and result record")
	commit := fs.String("commit", "unknown", "commit of the benchmarked sources, for the provenance stamp")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (cold-restore|app|serve), -seconds >= 1, -trace 0|1\n")
		return 2
	}
	traced := *trace == 1
	dur := time.Duration(*seconds) * time.Second

	prov := provenance(*commit, *seed)
	fmt.Fprintf(stdout, "provenance %s\n", mustJSON(prov))

	// The developer's signing key predates any build; its (randomly long)
	// generation is not set-up work.
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: signing key: %v\n", err)
		return 1
	}
	// Set-up is repeated and its median reported, so that one slow
	// set-up does not move setup_s. A traced run needs one.
	setups := 3
	if traced {
		setups = 1
	}
	var (
		e          env
		setupTimes []time.Duration
	)
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				fmt.Fprintf(stderr, "perfbench: closing set-up: %v\n", err)
				return 1
			}
			// Each set-up starts from a collected heap, so a discarded
			// set-up's garbage does not stack onto the next one's peak.
			e = nil
			runtime.GC()
		}
		start := time.Now()
		ne, err := w.setup(key)
		setupTimes = append(setupTimes, time.Since(start))
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", w.name, err)
			return 1
		}
		e = ne
	}

	var (
		ph      *phase
		metrics = metricSet{}
		rec     *recorder
	)
	if !traced {
		ph = e.measure(*seed, dur, nil)
		for k, v := range ph.e2e {
			metrics[k] = v
		}
		metrics.set("setup_s", median(setupTimes).Seconds(), "s")
		metrics.set("peak_rss_mib", peakRSSMiB(), "MiB")
	} else {
		untraced := e.measure(*seed, dur/2, nil)
		rec = newRecorder()
		ph = e.measure(*seed, dur/2, rec)
		ph.merge(untraced)
		for k, v := range ph.layers {
			metrics[k] = v
		}
		metrics.set("trace.overhead_pct", 100*(ratio(ph.primary, untraced.primary)-1), "%")
		metrics.set("trace.spans", float64(len(rec.all())), "count")
		ph.report.set("untraced_primary_ms", untraced.primary, "ms")
		ph.report.set("traced_primary_ms", ph.primary, "ms")
	}
	if err := e.close(); err != nil {
		ph.fail("shutting down: %v", err)
	}
	metrics = complete(ph, metrics, traced)

	for _, msg := range ph.errs {
		fmt.Fprintf(stderr, "perfbench: FAILED %s\n", msg)
	}
	fmt.Fprintf(stdout, "report %s\n%s", w.name, ph.report.describe())
	if err := writeRecord(*out, w.name, *seed, *trace, prov, ph, metrics, rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: writing results: %v\n", err)
		ph.failed++
	}
	res := result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: metrics}
	if res.Attempted < 1 {
		res.Correct = false
	}
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeRecord stores the stamped result (and the span dump of a traced
// run) under dir.
func writeRecord(dir, name string, seed uint64, trace int, prov map[string]any, ph *phase, metrics metricSet, rec *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace)
	if rec != nil {
		if err := rec.writeJSONL(filepath.Join(dir, stem+".spans.jsonl")); err != nil {
			return err
		}
	}
	body := map[string]any{
		"provenance": prov,
		"workload":   name,
		"trace":      trace,
		"attempted":  ph.attempted,
		"failed":     ph.failed,
		"errors":     ph.errs,
		"metrics":    metrics,
		"report":     ph.report,
	}
	return os.WriteFile(filepath.Join(dir, stem+".json"), []byte(mustJSON(body)+"\n"), 0o644)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, strings and numbers are marshalled
	}
	return string(b)
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
