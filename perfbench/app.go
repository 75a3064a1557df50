package main

import (
	"crypto/rsa"
	"fmt"
	"time"

	"sgxelide/internal/bench"
	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
)

// app: Figures 3/4 whole-application runs in remote data mode. For each
// non-game program a plain-SGX baseline run (load the plain enclave, run
// the built-in suite) alternates with a protected run (launch, restore,
// run the same suite). Every suite checks its results against Go's
// reference implementations.

type appProgram struct {
	prog *bench.Program
	base *baselineImage
	dep  *deployment
}

type appEnv struct {
	m       *machine
	progs   []*appProgram
	srv     *serving
	clients *obs.Registry
}

// appPrograms are the benchmarks whose whole-application overhead the
// paper measures (the games run forever and are excluded).
func appPrograms() []*bench.Program {
	var out []*bench.Program
	for _, p := range bench.All() {
		if !p.IsGame {
			out = append(out, p)
		}
	}
	return out
}

func setupApp(key *rsa.PrivateKey) (env, error) {
	m, err := newMachine()
	if err != nil {
		return nil, err
	}
	wl, err := elide.GenerateWhitelist()
	if err != nil {
		return nil, err
	}
	e := &appEnv{m: m, clients: obs.NewRegistry()}
	var deps []*deployment
	for _, p := range appPrograms() {
		base, err := buildBaseline(m, key, p)
		if err != nil {
			return nil, err
		}
		d, err := buildDeployment(m, key, wl, p, modeRemote)
		if err != nil {
			return nil, err
		}
		e.progs = append(e.progs, &appProgram{prog: p, base: base, dep: d})
		deps = append(deps, d)
	}
	if e.srv, err = startStoreServer(m.ca, deps); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *appEnv) close() error { return e.srv.stop() }

// appRun is one measured whole-application run.
type appRun struct {
	total        time.Duration // load or launch+restore, plus the suite
	restore      time.Duration // protected runs only
	suite        time.Duration
	restoreInsns uint64
	suiteInsns   uint64
}

// runBaseline loads the plain enclave and runs the suite.
func (e *appEnv) runBaseline(p *appProgram, root active) (appRun, error) {
	var r appRun
	t0 := time.Now()
	sp := root.child("sgx.load")
	encl, err := e.m.host.CreateEnclave(p.base.elf, p.base.ss, p.base.iface)
	sp.end()
	load := time.Since(t0)
	if err != nil {
		return r, fmt.Errorf("%s baseline: load: %w", p.prog.Name, err)
	}
	defer encl.Destroy()
	r.suite, err = runSuite(e.m.host, encl, p.prog, root)
	r.total = load + r.suite
	r.suiteInsns = encl.Steps
	if err != nil {
		return r, fmt.Errorf("%s baseline: %w", p.prog.Name, err)
	}
	return r, nil
}

// runProtected launches, restores and runs the suite.
func (e *appEnv) runProtected(p *appProgram, root active) (appRun, error) {
	var r appRun
	encl, rr, err := firstLaunch(e.m, p.dep, e.srv.addr, e.clients, root)
	if err != nil {
		return r, err
	}
	defer encl.Destroy()
	r.restore, r.restoreInsns = rr.restore, rr.insns
	r.suite, err = runSuite(e.m.host, encl, p.prog, root)
	// The restored-text check between restore and suite is not timed.
	r.total = rr.ready + r.suite
	r.suiteInsns = encl.Steps - rr.insns
	if err != nil {
		return r, fmt.Errorf("%s protected: %w", p.prog.Name, err)
	}
	return r, nil
}

// runSuite is the app gate: the program's built-in suite, every result
// checked against the Go reference.
func runSuite(h *sdk.Host, encl *sdk.Enclave, p *bench.Program, root active) (time.Duration, error) {
	sp := root.child("evm.suite")
	start := time.Now()
	err := p.Workload(h, encl)
	took := time.Since(start)
	sp.end()
	if err != nil {
		return took, fmt.Errorf("suite: %w", err)
	}
	return took, nil
}

func (e *appEnv) measure(seed uint64, d time.Duration, rec *recorder) *phase {
	ph := &phase{e2e: metricSet{}, report: metricSet{}, layers: metricSet{}}
	order := newAppOrder(seed, len(e.progs))
	insns := newInsnLedger()     // protected suites
	baseInsns := newInsnLedger() // baseline suites
	restoreInsns := newInsnLedger()
	base := map[string][]time.Duration{}
	prot := map[string][]time.Duration{}
	restore := map[string][]time.Duration{}
	var suiteInsns uint64
	var suiteTime time.Duration

	start := time.Now()
	for time.Since(start) < d || ph.attempted == 0 {
		for _, step := range order.round() {
			p := e.progs[step.prog]
			name := p.prog.Name
			for side := 0; side < 2; side++ {
				baseline := (side == 0) == step.baselineFirst
				ph.attempted++
				var (
					r   appRun
					err error
				)
				if baseline {
					root := rec.root("app.baseline")
					r, err = e.runBaseline(p, root)
					root.end()
				} else {
					root := rec.root("app.protected")
					r, err = e.runProtected(p, root)
					root.end()
				}
				if err != nil {
					ph.fail("%v", err)
					continue
				}
				suiteInsns += r.suiteInsns
				suiteTime += r.suite
				if baseline {
					base[name] = append(base[name], r.total)
					baseInsns.note(ph, name, r.suiteInsns)
				} else {
					prot[name] = append(prot[name], r.total)
					restore[name] = append(restore[name], r.restore)
					insns.note(ph, name, r.suiteInsns)
					restoreInsns.note(ph, name+"."+modeRemote, r.restoreInsns)
				}
			}
		}
	}

	wall := time.Since(start)
	var runMs, relPerf, restoreMs []float64
	for _, ap := range e.progs {
		name := ap.prog.Name
		if len(prot[name]) == 0 || len(base[name]) == 0 {
			continue // every run of it failed; counted above
		}
		b, pr := ms(median(base[name])), ms(median(prot[name]))
		runMs = append(runMs, pr)
		relPerf = append(relPerf, pr/b)
		restoreMs = append(restoreMs, ms(median(restore[name])))
		ph.report.set("baseline_ms."+name, b, "ms")
		ph.report.set("protected_ms."+name, pr, "ms")
		ph.report.set("relative_perf."+name, pr/b, "ratio")
		ph.report.set("runs."+name, float64(len(prot[name])), "count")
		ph.layers.set("trusted.restore_share."+name, ms(median(restore[name]))/pr, "ratio")
	}
	ph.primary = geomean(runMs)
	ph.e2e.set("p50_ms", geomean(runMs), "ms")
	ph.e2e.set("restore_ms", geomean(restoreMs), "ms")
	ph.e2e.set("ops_per_s", float64(ph.attempted-ph.failed)/wall.Seconds(), "1/s")
	ph.report.set("run_ms", geomean(runMs), "ms")
	ph.report.set("relative_perf", geomean(relPerf), "ratio")
	if rec == nil {
		return ph
	}

	ix := indexSpans(rec.all())
	L := ph.layers
	L.set("sgx.launch_ms.p50", ms(median(ix.durations("sgx.launch"))), "ms")
	L.set("evm.app_minst_s", ratio(float64(suiteInsns)/1e6, suiteTime.Seconds()), "Minst/s")
	insns.put(L, "evm.app_insns")
	restoreInsns.put(L, "evm.restore_insns")
	L.set("evm.nondeterministic", float64(insns.mismatch+baseInsns.mismatch+restoreInsns.mismatch), "count")
	return ph
}
