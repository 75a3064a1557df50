package main

import (
	"bytes"
	"context"
	"crypto/rsa"
	"fmt"
	"net"
	"time"

	"sgxelide/internal/bench"
	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// cold-restore: Table 2 as a user meets it. A closed loop with one client
// launches a protected enclave for the first time on one shared platform
// and restores it through a pipelined (v1) TCPClient against one loopback
// authentication server, cycling through every paper program in both data
// modes in a seeded order.

type coldEnv struct {
	m       *machine
	deps    []*deployment
	srvs    map[string]*serving // per data mode
	clients *obs.Registry       // TCPClient counters (client.flights)
}

func setupCold(key *rsa.PrivateKey) (env, error) {
	m, err := newMachine()
	if err != nil {
		return nil, err
	}
	wl, err := elide.GenerateWhitelist()
	if err != nil {
		return nil, err
	}
	var deps []*deployment
	for _, p := range bench.All() {
		for _, mode := range []string{modeRemote, modeLocal} {
			d, err := buildDeployment(m, key, wl, p, mode)
			if err != nil {
				return nil, err
			}
			deps = append(deps, d)
		}
	}
	// Both data modes of a program sanitize to the same image, hence the
	// same measurement, so each mode has its own server.
	e := &coldEnv{m: m, deps: deps, srvs: map[string]*serving{}, clients: obs.NewRegistry()}
	for _, mode := range []string{modeRemote, modeLocal} {
		var ds []*deployment
		for _, d := range deps {
			if d.mode == mode {
				ds = append(ds, d)
			}
		}
		srv, err := startStoreServer(m.ca, ds)
		if err != nil {
			e.close()
			return nil, err
		}
		e.srvs[mode] = srv
	}
	return e, nil
}

// startStoreServer serves deployments from one multi-enclave server on a
// loopback port.
func startStoreServer(ca *sgx.CA, deps []*deployment) (*serving, error) {
	st := elide.NewSecretStore()
	if err := register(st, deps); err != nil {
		return nil, err
	}
	srv, err := elide.NewMultiServer(ca.PublicKey(), st, elide.WithServerMetrics(obs.NewRegistry()))
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return serve(srv, l), nil
}

func (e *coldEnv) close() error {
	var first error
	for _, s := range e.srvs {
		if err := s.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tracedChannel is the benchmark's own wrapper around a SecretChannel:
// it records a span, a child of parent, around every attest and request
// (the restore path's calls are made by the untrusted runtime on the
// enclave's behalf, out of the benchmark's reach otherwise).
type tracedChannel struct {
	inner           elide.SecretChannel
	parent          active
	attest, request string // span names
}

func (c *tracedChannel) Attest(ctx context.Context, q *sgx.Quote, pub []byte) ([]byte, error) {
	sp := c.parent.child(c.attest)
	defer sp.end()
	return c.inner.Attest(ctx, q, pub)
}

func (c *tracedChannel) Request(ctx context.Context, enc []byte) ([]byte, error) {
	sp := c.parent.child(c.request)
	defer sp.end()
	return c.inner.Request(ctx, enc)
}

func (c *tracedChannel) Close() error { return c.inner.Close() }

// restoreRun is one measured first launch.
type restoreRun struct {
	ready   time.Duration // Launch called → elide_restore returned OK
	restore time.Duration // the elide_restore ecall alone
	insns   uint64        // instructions the restore ecall retired
}

// firstLaunch launches d on m, restores it through a fresh v1 TCPClient to
// addr, and checks the restored text. The enclave is returned live for the
// caller to use and destroy.
func firstLaunch(m *machine, d *deployment, addr string, clients *obs.Registry, root active) (*sdk.Enclave, restoreRun, error) {
	var r restoreRun
	ch := &tracedChannel{inner: elide.NewTCPClient(addr,
		elide.WithProtocolVersion(elide.ProtoV1),
		elide.WithClientMetrics(clients)),
		attest: "transport.attest", request: "transport.request"}
	defer ch.Close()

	t0 := time.Now()
	sp := root.child("sgx.launch")
	encl, rt, err := d.prot.Launch(m.host, ch, d.prot.LocalFiles())
	sp.end()
	if err != nil {
		return nil, r, fmt.Errorf("%s: launch: %w", d.name(), err)
	}
	t1 := time.Now()
	sp = root.child("trusted.restore")
	ch.parent = sp
	code, err := encl.ECall("elide_restore", 0)
	sp.end()
	t2 := time.Now()
	r = restoreRun{ready: t2.Sub(t0), restore: t2.Sub(t1), insns: encl.Steps}
	if err == nil && code != elide.RestoreOKServer {
		err = fmt.Errorf("elide_restore returned %d", code)
	}
	if err == nil {
		err = checkRestoredText(encl, d)
	}
	if err != nil {
		encl.Destroy()
		return nil, r, fmt.Errorf("%s: restore: %w (runtime: %v)", d.name(), err, rt.LastErr())
	}
	return encl, r, nil
}

// checkRestoredText is the cold-restore gate: the text read back through
// the enclave's own address space equals the pre-sanitization image's.
func checkRestoredText(encl *sdk.Enclave, d *deployment) error {
	got, f := encl.Space.EnclaveReadBytes(d.textAddr, len(d.text))
	if f != nil {
		return fmt.Errorf("reading restored text: %v", f)
	}
	if !bytes.Equal(got, d.text) {
		i := 0
		for i < len(got) && got[i] == d.text[i] {
			i++
		}
		return fmt.Errorf("restored text differs from the plain image at offset %#x", i)
	}
	return nil
}

func (e *coldEnv) measure(seed uint64, d time.Duration, rec *recorder) *phase {
	ph := &phase{e2e: metricSet{}, report: metricSet{}, layers: metricSet{}}
	order := newColdOrder(seed, len(e.deps))
	insns := newInsnLedger()
	var ready, restore []time.Duration
	perDep := map[string][]time.Duration{}
	ocalls0 := e.m.metrics.Counter("sdk.ocalls").Load()
	flights0 := e.clients.Counter("client.flights").Load()
	var restoreInsns uint64

	start := time.Now()
	for time.Since(start) < d || ph.attempted == 0 {
		// Whole cycles only, so every run restores each deployment
		// equally often.
		for _, i := range order.cycle() {
			dep := e.deps[i]
			ph.attempted++
			root := rec.root("cold_restore")
			encl, r, err := firstLaunch(e.m, dep, e.srvs[dep.mode].addr, e.clients, root)
			root.end()
			if err != nil {
				ph.fail("%v", err)
				continue
			}
			encl.Destroy()
			ready = append(ready, r.ready)
			restore = append(restore, r.restore)
			perDep[dep.name()] = append(perDep[dep.name()], r.restore)
			insns.note(ph, dep.name(), r.insns)
			restoreInsns += r.insns
		}
	}
	wall := time.Since(start)
	n := float64(len(ready))

	ph.primary = ms(median(ready))
	ph.e2e.set("p50_ms", ms(median(ready)), "ms")
	ph.e2e.set("restore_ms", ms(median(restore)), "ms")
	ph.e2e.set("ops_per_s", n/wall.Seconds(), "1/s")

	ph.report.set("restores", n, "count")
	ph.report.set("ready_p50_ms", ms(median(ready)), "ms")
	ph.report.set("ready_p90_ms", ms(quantile(ready, 0.90)), "ms")
	ph.report.set("restore_p50_ms", ms(median(restore)), "ms")
	for _, k := range sortedKeys(perDep) {
		ph.report.set("restore_p50_ms."+k, ms(median(perDep[k])), "ms")
	}
	if rec == nil {
		return ph
	}

	ix := indexSpans(rec.all())
	var self, total, inTransport []time.Duration
	for _, s := range ix.byName["trusted.restore"] {
		st := ix.selfTime(s)
		self = append(self, st)
		total = append(total, s.dur())
		inTransport = append(inTransport, s.dur()-st)
	}
	L := ph.layers
	L.set("sgx.launch_ms.p50", ms(median(ix.durations("sgx.launch"))), "ms")
	L.set("trusted.restore_self_ms.p50", ms(median(self)), "ms")
	// Means add up where medians do not: self + transport = restore span.
	L.set("trusted.restore_self_ms.mean", ms(mean(self)), "ms")
	L.set("trusted.restore_transport_ms.mean", ms(mean(inTransport)), "ms")
	L.set("trusted.restore_ms.mean", ms(mean(total)), "ms")
	L.set("evm.restore_minst_s", ratio(float64(restoreInsns)/1e6, sum(self).Seconds()), "Minst/s")
	insns.put(L, "evm.restore_insns")
	L.set("evm.nondeterministic", float64(insns.mismatch), "count")
	L.set("transport.attest_ms.p50", ms(median(ix.durations("transport.attest"))), "ms")
	L.set("transport.request_ms.p50", ms(median(ix.durations("transport.request"))), "ms")
	L.set("transport.flights_per_restore", ratio(float64(e.clients.Counter("client.flights").Load()-flights0), n), "count")
	L.set("sdk.ocalls_per_restore", ratio(float64(e.m.metrics.Counter("sdk.ocalls").Load()-ocalls0), n), "count")
	return ph
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sum(ds) / time.Duration(len(ds))
}
