package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"sgxelide/internal/bench"
	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// serve: the operator's view. Two loopback replicas share resume records
// under a fleet key (static peers, no gossip). An open loop offers
// serveRate arrivals/s, then a closed loop with nproc clients finds the
// saturation rate; both draw from one seeded 70/20/10 mix of fresh
// pipelined restores, resume replays on the other replica and legacy
// three-flight restores. Each arrival is a simulated machine with its own
// ECDH key and a quote minted from one loaded enclave, so no enclave code
// runs per arrival.

const (
	serveRate     = 300.0                 // open-loop arrivals per second
	serveLimit    = 20 * time.Millisecond // latency limit on the open loop's p99
	serveOpenFrac = 0.6                   // share of the measured time spent in the open loop
	opTimeout     = 5 * time.Second
)

type serveEnv struct {
	m         *machine
	dep       *deployment
	quoteEncl *sdk.Enclave
	reps      [2]*serving
	wantMeta  []byte
	wantData  []byte
	clients   *obs.Registry
}

func setupServe(key *rsa.PrivateKey) (env, error) {
	m, err := newMachine()
	if err != nil {
		return nil, err
	}
	wl, err := elide.GenerateWhitelist()
	if err != nil {
		return nil, err
	}
	dep, err := buildDeployment(m, key, wl, bench.Sha1, modeRemote)
	if err != nil {
		return nil, err
	}
	// Loaded only to mint quotes: the generator drives the protocol itself.
	encl, _, err := dep.prot.Launch(m.host, nil, nil)
	if err != nil {
		return nil, err
	}
	e := &serveEnv{m: m, dep: dep, quoteEncl: encl, clients: obs.NewRegistry(),
		wantMeta: dep.prot.Meta.Marshal(), wantData: serverSecret(dep.prot)}
	if err := e.startReplicas(); err != nil {
		encl.Destroy()
		return nil, err
	}
	return e, nil
}

// startReplicas brings up two servers, each the other's static
// replication peer.
func (e *serveEnv) startReplicas() error {
	fleetKey := make([]byte, 32)
	if _, err := rand.Read(fleetKey); err != nil {
		return err
	}
	var ls [2]net.Listener
	for i := range ls {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, o := range ls[:i] {
				o.Close()
			}
			return err
		}
		ls[i] = l
	}
	for i := range ls {
		srv, err := e.dep.prot.NewServerFor(e.m.ca,
			elide.WithServerMetrics(obs.NewRegistry()),
			elide.WithResumeReplication(fleetKey, ls[1-i].Addr().String()),
			// Resumes replay sessions up to resumeWindow arrivals old; the
			// cache must outlive a whole run's fresh sessions.
			elide.WithResumeCacheSize(1<<17),
			// At shutdown only idle replication links remain open.
			elide.WithDrainTimeout(100*time.Millisecond),
		)
		if err != nil {
			for _, l := range ls[i:] {
				l.Close()
			}
			e.stopReplicas()
			return err
		}
		e.reps[i] = serve(srv, ls[i])
	}
	return nil
}

func (e *serveEnv) stopReplicas() error {
	var first error
	for _, r := range e.reps {
		if r != nil {
			if err := r.stop(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func (e *serveEnv) close() error {
	e.quoteEncl.Destroy()
	return e.stopReplicas()
}

// session is a fresh restore's channel, kept so a later arrival can replay
// it.
type session struct {
	done  chan struct{} // closed when the fresh arrival finished
	ok    bool
	quote *sgx.Quote
	pub   []byte // client ECDH public key (bound into the quote)
	key   []byte // channel key
	spub  []byte // server key the channel is bound to
}

// sessions maps arrival index → session for the fresh arrivals a later
// resume may still replay.
type sessions struct {
	mu  sync.Mutex
	m   map[int]*session
	low int // sessions below this index are out of every resume window
}

func (s *sessions) get(i int) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[int]*session{}
	}
	ss, ok := s.m[i]
	if !ok {
		ss = &session{done: make(chan struct{})}
		s.m[i] = ss
	}
	// Forget sessions no resume can name any more; arrivals are started
	// nearly in order, so twice the window is ample slack.
	for ; s.low < i-2*resumeWindow; s.low++ {
		delete(s.m, s.low)
	}
	return ss
}

// identity is one simulated machine's attestation material: a fresh ECDH
// keypair and a quote binding its public key.
func (e *serveEnv) identity(root active) (priv, pub []byte, q *sgx.Quote, err error) {
	sp := root.child("sdk.ecdh")
	priv, pub, err = sdk.GenerateECDHKeypair()
	sp.end()
	if err != nil {
		return nil, nil, nil, err
	}
	sp = root.child("sgx.quote")
	defer sp.end()
	var rdata [sgx.ReportDataSize]byte
	binding := sha256.Sum256(pub)
	copy(rdata[:], binding[:])
	p := e.m.host.Platform
	report, err := p.EReport(e.quoteEncl.Encl, sgx.QETargetInfo(), rdata)
	if err != nil {
		return nil, nil, nil, err
	}
	q, err = p.QuoteReport(report)
	return priv, pub, q, err
}

func (e *serveEnv) client(replica int, proto uint8) *elide.TCPClient {
	return elide.NewTCPClient(e.reps[replica].addr,
		elide.WithProtocolVersion(proto),
		elide.WithClientMetrics(e.clients),
		elide.WithDialTimeout(opTimeout),
		elide.WithRequestTimeout(opTimeout),
		elide.WithRetryBudget(0), // a failed arrival is a data point, not a retry loop
	)
}

// channelGet sends one request byte on the channel and opens the reply;
// open, when live, is the span around the decrypt.
func channelGet(ctx context.Context, c elide.SecretChannel, key []byte, req byte, open active) ([]byte, error) {
	enc, err := elide.ChannelSeal(key, []byte{req})
	if err != nil {
		return nil, err
	}
	resp, err := c.Request(ctx, enc)
	if err != nil {
		return nil, err
	}
	sp := open.child("sdk.channel_open")
	defer sp.end()
	return elide.ChannelOpen(key, resp)
}

// checkSecrets is the serve gate on a restore's payload.
func (e *serveEnv) checkSecrets(meta, data []byte) error {
	if !bytes.Equal(meta, e.wantMeta) {
		return fmt.Errorf("released metadata differs from the deployment's (%d bytes)", len(meta))
	}
	if !bytes.Equal(data, e.wantData) {
		return fmt.Errorf("released secret data differs from the deployment's (%d bytes)", len(data))
	}
	return nil
}

// opResult is what one arrival did; attested says the server counted a
// fresh attestation for it.
type opResult struct {
	attested bool
	err      error
}

// fresh is a pipelined restore: attest with the meta and data bundled
// into the reply, then both served from the client's cache.
func (e *serveEnv) fresh(ctx context.Context, replica int, s *session, root active) (res opResult) {
	defer close(s.done)
	priv, pub, q, err := e.identity(root)
	if err != nil {
		return opResult{err: err}
	}
	c := e.client(replica, elide.ProtoV1)
	defer c.Close()
	sp := root.child("transport.attest")
	spub, err := c.Attest(ctx, q, pub)
	sp.end()
	if err != nil {
		return opResult{err: fmt.Errorf("fresh attest: %w", err)}
	}
	sp = root.child("sdk.ecdh")
	key, err := sdk.DeriveChannelKey(priv, spub)
	sp.end()
	if err != nil {
		return opResult{attested: true, err: err}
	}
	meta, err := channelGet(ctx, c, key, elide.RequestMeta, root)
	if err != nil {
		return opResult{attested: true, err: fmt.Errorf("fresh meta: %w", err)}
	}
	data, err := channelGet(ctx, c, key, elide.RequestData, root)
	if err != nil {
		return opResult{attested: true, err: fmt.Errorf("fresh data: %w", err)}
	}
	if err := e.checkSecrets(meta, data); err != nil {
		return opResult{attested: true, err: err}
	}
	// spub aliases the attest reply, bundle and all: keep a copy only.
	s.quote, s.pub, s.key, s.spub, s.ok = q, pub, key, bytes.Clone(spub), true
	return opResult{attested: true}
}

// resume replays an earlier fresh session's handshake on the other
// replica. The gate: the replica answers with the session's original
// server key (from its replicated store or a peer fetch, never a fresh
// attestation), and the original channel key still opens its replies.
func (e *serveEnv) resume(ctx context.Context, replica int, target *session, root active) opResult {
	select {
	case <-target.done:
	case <-ctx.Done():
		return opResult{err: fmt.Errorf("resume: replayed session never finished")}
	}
	if !target.ok {
		return opResult{err: fmt.Errorf("resume: replayed session had failed")}
	}
	c := e.client(replica, elide.ProtoV1)
	defer c.Close()
	sp := root.child("transport.resume")
	spub, err := c.ResumeAttest(ctx, target.quote, target.pub)
	sp.end()
	if err != nil {
		return opResult{err: fmt.Errorf("resume attest: %w", err)}
	}
	if !bytes.Equal(spub, target.spub) {
		return opResult{err: fmt.Errorf("resume: replica answered a fresh server key, not the session's")}
	}
	meta, err := channelGet(ctx, c, target.key, elide.RequestMeta, active{})
	if err != nil {
		return opResult{err: fmt.Errorf("resume meta: %w", err)}
	}
	if !bytes.Equal(meta, e.wantMeta) {
		return opResult{err: fmt.Errorf("resume: released metadata differs from the deployment's")}
	}
	return opResult{}
}

// legacy is the three-flight restore: attest, then meta and data each
// one round trip.
func (e *serveEnv) legacy(ctx context.Context, replica int, root active) opResult {
	priv, pub, q, err := e.identity(root)
	if err != nil {
		return opResult{err: err}
	}
	c := &tracedChannel{inner: e.client(replica, elide.ProtoLegacy), parent: root,
		attest: "transport.legacy", request: "transport.legacy"}
	defer c.Close()
	spub, err := c.Attest(ctx, q, pub)
	if err != nil {
		return opResult{err: fmt.Errorf("legacy attest: %w", err)}
	}
	sp := root.child("sdk.ecdh")
	key, err := sdk.DeriveChannelKey(priv, spub)
	sp.end()
	if err != nil {
		return opResult{attested: true, err: err}
	}
	meta, err := channelGet(ctx, c, key, elide.RequestMeta, active{})
	if err != nil {
		return opResult{attested: true, err: fmt.Errorf("legacy meta: %w", err)}
	}
	data, err := channelGet(ctx, c, key, elide.RequestData, active{})
	if err != nil {
		return opResult{attested: true, err: fmt.Errorf("legacy data: %w", err)}
	}
	return opResult{attested: true, err: e.checkSecrets(meta, data)}
}

// run executes planned arrival i.
func (e *serveEnv) run(i int, op serveOp, ss *sessions, rec *recorder) opResult {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	root := rec.root("serve." + op.kind.String())
	defer root.end()
	switch op.kind {
	case opFresh:
		return e.fresh(ctx, op.replica, ss.get(i), root)
	case opResume:
		return e.resume(ctx, op.replica, ss.get(op.target), root)
	default:
		return e.legacy(ctx, op.replica, root)
	}
}

// serveTally collects one pass's outcomes.
type serveTally struct {
	mu        sync.Mutex
	latency   []time.Duration // open loop, from due time, successful arrivals
	freshSvc  []time.Duration // fresh arrivals, from start of service
	queueWait []time.Duration // open loop: due → a connection free (0 if one was)
	late      []time.Duration // open loop, idle connection: due → sent
	within    int             // open-loop arrivals done OK within serveLimit
	offered   int             // open-loop arrivals
	closedOK  int
	kinds     [3]int // successful arrivals per kind
	attested  int    // fresh attestations the servers should have counted
}

func (e *serveEnv) measure(seed uint64, d time.Duration, rec *recorder) *phase {
	ph := &phase{e2e: metricSet{}, report: metricSet{}, layers: metricSet{}}
	plan := newServePlan(seed)
	var ss sessions
	var t serveTally
	workers := runtime.NumCPU()
	before := e.serverCounters()

	record := func(op serveOp, r opResult) bool {
		t.mu.Lock()
		defer t.mu.Unlock()
		ph.attempted++
		if r.attested {
			t.attested++
		}
		if r.err != nil {
			ph.fail("%s arrival: %v", op.kind, r.err)
			return false
		}
		t.kinds[op.kind]++
		return true
	}

	// Open loop: arrival k is due at start + k/serveRate whatever happened
	// to earlier arrivals. The `workers` connections take arrivals in
	// order: one that finds a connection idle is sent at its due time (late
	// by the timer's wake-up); one whose due time passes while every
	// connection is busy waits for the first to free up.
	openDur := time.Duration(float64(d) * serveOpenFrac)
	n := max(1, int(serveRate*openDur.Seconds()))
	rate := serveRate
	interval := time.Duration(float64(time.Second) / rate)
	var (
		planMu  sync.Mutex
		claimed int
	)
	claim := func() (k, i int, op serveOp, ok bool) {
		planMu.Lock()
		defer planMu.Unlock()
		if claimed == n {
			return 0, 0, op, false
		}
		k = claimed
		claimed++
		i, op = plan.next()
		return k, i, op, true
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, i, op, ok := claim()
				if !ok {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				idle := false
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					idle = true
				}
				begin := time.Now()
				r := e.run(i, op, &ss, rec)
				end := time.Now()
				ok = record(op, r)
				t.mu.Lock()
				t.offered++
				if idle {
					t.late = append(t.late, begin.Sub(due))
					t.queueWait = append(t.queueWait, 0)
				} else {
					t.queueWait = append(t.queueWait, begin.Sub(due))
				}
				if ok {
					lat := end.Sub(due)
					t.latency = append(t.latency, lat)
					if lat <= serveLimit {
						t.within++
					}
					if op.kind == opFresh {
						t.freshSvc = append(t.freshSvc, end.Sub(begin))
					}
				}
				t.mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// Closed loop: `workers` clients, each issuing its next arrival when
	// the previous one returns, until the rest of the time is spent.
	closedStart := time.Now()
	deadline := start.Add(d)
	if !closedStart.Before(deadline) {
		deadline = closedStart.Add(time.Second)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				planMu.Lock()
				i, op := plan.next()
				planMu.Unlock()
				if record(op, e.run(i, op, &ss, rec)) {
					t.mu.Lock()
					t.closedOK++
					t.mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	closedWall := time.Since(closedStart)
	after := e.serverCounters()

	p50, p99 := median(t.latency), quantile(t.latency, 0.99)
	satRPS := float64(t.closedOK) / closedWall.Seconds()
	ph.primary = ms(p50)
	ph.e2e.set("p50_ms", ms(p50), "ms")
	ph.e2e.set("restore_ms", ms(median(t.freshSvc)), "ms")
	ph.e2e.set("ops_per_s", satRPS, "1/s")

	ph.report.set("arrivals_open", float64(t.offered), "count")
	ph.report.set("serve_p50_ms", ms(p50), "ms")
	ph.report.set("serve_p99_ms", ms(p99), "ms")
	ph.report.set("slo_attainment", ratio(float64(t.within), float64(t.offered)), "share")
	ph.report.set("sat_rps", satRPS, "1/s")
	for k, c := range t.kinds {
		ph.report.set("ok."+opKind(k).String(), float64(c), "count")
	}

	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	resumes := float64(t.kinds[opResume])
	extra := ratio(delta("server.attest_ok")-float64(t.attested), resumes)
	if extra > 0 {
		ph.fail("replicated resumes cost %.3f extra attestations each, want 0", extra)
	}
	if rec == nil {
		return ph
	}

	ix := indexSpans(rec.all())
	arrivals := float64(ph.attempted)
	L := ph.layers
	L.set("sgx.quote_ms.p50", ms(median(ix.durations("sgx.quote"))), "ms")
	L.set("sdk.ecdh_ms.p50", ms(median(perTrace(ix, "sdk.ecdh"))), "ms")
	attest := ix.durations("transport.attest")
	L.set("transport.attest_ms.p50", ms(median(attest)), "ms")
	L.set("transport.attest_ms.p99", ms(quantile(attest, 0.99)), "ms")
	L.set("transport.resume_ms.p50", ms(median(ix.durations("transport.resume"))), "ms")
	L.set("transport.legacy_ms.p50", ms(median(perTrace(ix, "transport.legacy"))), "ms")
	L.set("sdk.channel_open_ms.p50", ms(median(perTrace(ix, "sdk.channel_open"))), "ms")
	L.set("gen.queue_wait_ms.p99", ms(quantile(t.queueWait, 0.99)), "ms")
	L.set("gen.late_ms.p99", ms(quantile(t.late, 0.99)), "ms")
	L.set("server.attest_ok", ratio(delta("server.attest_ok"), arrivals), "per_arrival")
	L.set("server.attest_resumed", ratio(delta("server.attest_resumed"), arrivals), "per_arrival")
	L.set("server.bundles_served", ratio(delta("server.bundles_served"), arrivals), "per_arrival")
	L.set("server.overloaded", ratio(delta("server.overload.rate_limited")+delta("server.overload.inflight"), arrivals), "per_arrival")
	L.set("replication.fetch_per_resume", ratio(delta("server.resume_fetch"), resumes), "per_resume")
	L.set("replication.push_drops", delta("server.resume_replicate_dropped"), "count")
	L.set("replication.extra_attest_per_resume", extra, "per_resume")
	return ph
}

// serverCounters sums the named counters over both replicas.
func (e *serveEnv) serverCounters() map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range e.reps {
		for k, v := range r.srv.Metrics().Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

// perTrace sums the named spans' durations per operation.
func perTrace(ix spanIndex, name string) []time.Duration {
	sums := map[uint64]time.Duration{}
	for _, s := range ix.byName[name] {
		sums[s.Trace] += s.dur()
	}
	out := make([]time.Duration, 0, len(sums))
	for _, d := range sums {
		out = append(out, d)
	}
	return out
}
