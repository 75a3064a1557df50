package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
	"sgxelide/internal/sgx"
)

// Fleet is the loopback deployment every networked scenario runs on: one
// or more protected programs registered in one SecretStore, served by
// members the scenario can kill, restart on the same address and
// cold-add. Each member keeps its own metrics registry.
//
// Members added with a fleet key replicate session-resume records to the
// fleet's other keyed members. When the fleet has a gossip interval they
// run SWIM membership instead, seeded with member 0 alone: bootstrap is
// the mesh's job.
type Fleet struct {
	env   *Env
	progs []*Program
	prots []*elide.Protected // progs, built and registered in store
	store *elide.SecretStore

	gossip, suspect time.Duration // gossip tick and suspicion expiry; 0 = no gossip

	mu      sync.Mutex
	members []*member
}

// member is one authentication-server replica of a Fleet.
type member struct {
	fleet   *Fleet
	addr    string // bound at add; a restart rebinds the same address
	key     []byte // fleet sealing key; nil = standalone
	extra   []elide.ServerOption
	metrics *obs.Registry

	mu     sync.Mutex
	l      net.Listener // bound, not yet serving
	srv    *elide.Server
	stop   context.CancelFunc
	served chan error
}

// newFleet builds progs with san and registers them all in one store.
func newFleet(env *Env, san elide.SanitizeOptions, progs ...*Program) (*Fleet, error) {
	f := &Fleet{env: env, progs: progs, store: elide.NewSecretStore()}
	for _, p := range progs {
		prot, err := BuildProtected(env, p, san)
		if err != nil {
			return nil, err
		}
		if _, err := prot.Register(f.store, p.Name); err != nil {
			return nil, err
		}
		f.prots = append(f.prots, prot)
	}
	return f, nil
}

// add binds n new members on loopback, then starts them, so each one's
// replication peers are known when it starts. key and extra apply to
// every start of these members.
func (f *Fleet) add(n int, key []byte, extra ...elide.ServerOption) ([]*member, error) {
	ms := make([]*member, n)
	for i := range ms {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ms[i] = &member{fleet: f, addr: l.Addr().String(), key: key, extra: extra, metrics: obs.NewRegistry(), l: l}
		f.mu.Lock()
		f.members = append(f.members, ms[i])
		f.mu.Unlock()
	}
	for _, m := range ms {
		if err := m.start(); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// start serves the member until killed. After a kill it rebinds the same
// address; the old socket may linger briefly, so the bind is retried.
func (m *member) start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	l := m.l
	m.l = nil
	for i := 0; l == nil; i++ {
		var err error
		if l, err = net.Listen("tcp", m.addr); err != nil {
			if i == 19 {
				return err
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	srv, err := m.fleet.newServer(m)
	if err != nil {
		_ = l.Close() // listener never served; nothing depends on the close
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	m.srv, m.stop, m.served = srv, cancel, served
	go func() { served <- srv.Serve(ctx, l) }()
	return nil
}

func (f *Fleet) newServer(m *member) (*elide.Server, error) {
	// A short drain keeps kills abrupt — that is the point of the exercise.
	opts := []elide.ServerOption{
		elide.WithServerMetrics(m.metrics),
		elide.WithDrainTimeout(100 * time.Millisecond),
	}
	if m.key != nil {
		var peers []string
		f.mu.Lock()
		for _, o := range f.members {
			if o != m && o.key != nil && (f.gossip == 0 || o == f.members[0]) {
				peers = append(peers, o.addr)
			}
		}
		f.mu.Unlock()
		opts = append(opts, elide.WithResumeReplication(m.key, peers...))
		if f.gossip > 0 {
			opts = append(opts,
				elide.WithGossip(m.addr),
				elide.WithGossipInterval(f.gossip),
				elide.WithSuspectTimeout(f.suspect))
		}
	}
	return elide.NewMultiServer(f.env.CA.PublicKey(), f.store, append(opts, m.extra...)...)
}

// server returns the member's latest server (nil before its first start).
func (m *member) server() *elide.Server {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.srv
}

// kill stops the member, waits for its server to drain, and returns the
// serve error, if any, other than the shutdown itself.
func (m *member) kill() error {
	m.mu.Lock()
	stop, served, l := m.stop, m.served, m.l
	m.stop, m.served, m.l = nil, nil, nil
	m.mu.Unlock()
	if l != nil {
		_ = l.Close() // bound but never served
	}
	if stop == nil {
		return nil
	}
	stop()
	if err := <-served; err != nil && !errors.Is(err, elide.ErrServerClosed) {
		return err
	}
	return nil
}

// close kills every member and returns the first serve error.
func (f *Fleet) close() error {
	f.mu.Lock()
	ms := append([]*member(nil), f.members...)
	f.mu.Unlock()
	var first error
	for _, m := range ms {
		if err := m.kill(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counters merges the counters of every member and of extra registries
// (clients, pools, runtimes) into one snapshot.
func (f *Fleet) counters(extra ...*obs.Registry) map[string]uint64 {
	f.mu.Lock()
	for _, m := range f.members {
		extra = append(extra, m.metrics)
	}
	f.mu.Unlock()
	return mergeCounters(extra...)
}

func mergeCounters(regs ...*obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range regs {
		for k, v := range r.Snapshot().Counters {
			out[k] += v
		}
	}
	return out
}

func addrs(ms []*member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.addr
	}
	return out
}

// waitFor polls cond every few milliseconds until it holds, or fails once
// timeout has passed.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("not reached within %s", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// quoteFactory mints platform-signed quotes binding caller-supplied ECDH
// public keys to the protected program's measurement. It lets one process
// act as many user machines without loading an enclave per machine.
type quoteFactory struct {
	host *sdk.Host
	encl *sdk.Enclave
}

func newQuoteFactory(env *Env, prot *elide.Protected) (*quoteFactory, error) {
	// The enclave is loaded only for report generation; its runtime client
	// never speaks (the protocol clients drive the protocol directly).
	srv, err := prot.NewServerFor(env.CA)
	if err != nil {
		return nil, err
	}
	encl, _, err := prot.Launch(env.Host, &elide.DirectClient{Session: srv.NewSession()}, prot.LocalFiles())
	if err != nil {
		return nil, err
	}
	return &quoteFactory{host: env.Host, encl: encl}, nil
}

// quoteFor produces a fresh quote whose report data binds pub.
func (q *quoteFactory) quoteFor(pub []byte) (*sgx.Quote, error) {
	var rdata [sgx.ReportDataSize]byte
	binding := sha256.Sum256(pub)
	copy(rdata[:], binding[:])
	report, err := q.host.Platform.EReport(q.encl.Encl, sgx.QETargetInfo(), rdata)
	if err != nil {
		return nil, err
	}
	return q.host.Platform.QuoteReport(report)
}

// session is one client's channel state, carried across a replica kill.
type session struct {
	priv, pub []byte
	quote     *sgx.Quote
	serverPub []byte
}

func v1Client(addr string, timeout time.Duration) *elide.TCPClient {
	return elide.NewTCPClient(addr,
		elide.WithProtocolVersion(elide.ProtoV1),
		elide.WithDialTimeout(timeout),
		elide.WithRequestTimeout(timeout))
}

// openSessions attests n fresh sessions against addr.
func (q *quoteFactory) openSessions(ctx context.Context, addr string, n int, timeout time.Duration) ([]session, error) {
	sessions := make([]session, n)
	for i := range sessions {
		priv, pub, err := sdk.GenerateECDHKeypair()
		if err != nil {
			return nil, err
		}
		quote, err := q.quoteFor(pub)
		if err != nil {
			return nil, err
		}
		c := v1Client(addr, timeout)
		spub, err := c.Attest(ctx, quote, pub)
		_ = c.Close()
		if err != nil {
			return nil, fmt.Errorf("session %d attest: %w", i, err)
		}
		sessions[i] = session{priv: priv, pub: pub, quote: quote, serverPub: spub}
	}
	return sessions, nil
}

// resume replays the session's handshake against addr. resumed reports
// whether the replica answered with the original server key rather than
// downgrading to a fresh attestation; took is the handshake's latency.
// Either way the channel must then serve the deployment's metadata: a
// torn state that neither resumes nor re-keys is an error.
func (s *session) resume(ctx context.Context, addr string, timeout time.Duration, wantMeta []byte) (resumed bool, took time.Duration, err error) {
	c := v1Client(addr, timeout)
	defer func() { _ = c.Close() }()
	t0 := time.Now()
	spub, err := c.ResumeAttest(ctx, s.quote, s.pub)
	if err != nil {
		return false, 0, fmt.Errorf("resume: %w", err)
	}
	took = time.Since(t0)
	key, err := sdk.DeriveChannelKey(s.priv, spub)
	if err != nil {
		return false, 0, err
	}
	defer sdk.Wipe(key)
	enc, err := elide.ChannelSeal(key, []byte{elide.RequestMeta})
	if err != nil {
		return false, 0, err
	}
	resp, err := c.Request(ctx, enc)
	if err != nil {
		return false, 0, fmt.Errorf("post-resume request: %w", err)
	}
	meta, err := elide.ChannelOpen(key, resp)
	if err != nil {
		return false, 0, err
	}
	defer sdk.Wipe(meta)
	if subtle.ConstantTimeCompare(meta, wantMeta) != 1 {
		return false, 0, fmt.Errorf("post-resume request returned wrong metadata")
	}
	return bytes.Equal(spub, s.serverPub), took, nil
}

// restoreTally sorts the outcomes of a chaos or churn restore run.
// Succeeded + TypedFailures + UntypedFailures + WorkloadFailures is the
// number of restores. A correct run has UntypedFailures == 0 (every
// failure is a classified, typed error) and WorkloadFailures == 0 (no
// restore that reported success computes wrong answers).
type restoreTally struct {
	Succeeded        int `json:"succeeded"`
	TypedFailures    int `json:"typed_failures"`
	UntypedFailures  int `json:"untyped_failures"`
	WorkloadFailures int `json:"workload_failures"`

	// Per-strategy success counts: which link of the degradation chain
	// produced the bytes.
	SourceSealed int `json:"source_sealed"`
	SourceServer int `json:"source_server"`
	SourceLocal  int `json:"source_local"`
}

func (t *restoreTally) add(o *elide.RestoreOutcome, err, wlErr error) {
	switch {
	case err == nil && wlErr == nil:
		t.Succeeded++
		switch o.Source {
		case "sealed":
			t.SourceSealed++
		case "local":
			t.SourceLocal++
		default:
			t.SourceServer++
		}
	case err == nil:
		t.WorkloadFailures++
	case errors.Is(err, elide.ErrRestoreFailed),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		t.TypedFailures++
	default:
		t.UntypedFailures++
	}
}

// machines is the user side of the chaos and churn scenarios: simulated
// user machines, each on its own platform, running resilient restores of
// the fleet's first program through endpoint pools that share one set of
// pool, client and runtime registries.
type machines struct {
	f       *Fleet
	timeout time.Duration // per-restore deadline

	pool, client, runtime *obs.Registry
	latency               *obs.Histogram
	done                  atomic.Int64 // restores finished; controllers gate on it
}

func newMachines(f *Fleet, timeout time.Duration) *machines {
	return &machines{f: f, timeout: timeout,
		pool: obs.NewRegistry(), client: obs.NewRegistry(), runtime: obs.NewRegistry(),
		latency: obs.NewHistogram()}
}

// newPool builds an endpoint pool over addrs. Pools built by one machines
// value share their metrics.
func (u *machines) newPool(addrs []string, extra ...elide.ClientOption) *elide.EndpointPool {
	return elide.NewEndpointPool(addrs,
		elide.WithFailoverMetrics(u.pool),
		elide.WithBreakerCooldown(200*time.Millisecond),
		elide.WithEndpointClientOptions(append([]elide.ClientOption{
			elide.WithClientMetrics(u.client),
			elide.WithRetryBudget(1),
			elide.WithRetryBackoff(10*time.Millisecond, 100*time.Millisecond),
			elide.WithDialTimeout(10 * time.Second),
			elide.WithRequestTimeout(30 * time.Second),
		}, extra...)...),
	)
}

// run drains n restores through pool on workers concurrent machines.
func (u *machines) run(pool *elide.EndpointPool, n, workers int) (restoreTally, time.Duration) {
	var (
		mu    sync.Mutex
		tally restoreTally
		wg    sync.WaitGroup
	)
	jobs := make(chan struct{})
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				outcome, err, wlErr := u.restore(pool)
				mu.Lock()
				tally.add(outcome, err, wlErr)
				mu.Unlock()
				u.done.Add(1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- struct{}{}
	}
	close(jobs)
	wg.Wait()
	return tally, time.Since(start)
}

// waitDone blocks until n restores have finished.
func (u *machines) waitDone(n int) {
	_ = waitFor(24*time.Hour, func() bool { return u.done.Load() >= int64(n) })
}

// restore is one user machine's full flow: provision a platform, build a
// failover client over the shared pool, drive a resilient restore, and
// verify the restored code computes (the workload is the last line of
// defence against a torn restore escaping detection).
func (u *machines) restore(pool *elide.EndpointPool) (outcome *elide.RestoreOutcome, err, wlErr error) {
	start := time.Now()
	defer func() { u.latency.Observe(time.Since(start)) }()
	platform, err := sgx.NewPlatform(sgx.Config{}, u.f.env.CA)
	if err != nil {
		return nil, err, nil
	}
	host := sdk.NewHost(platform)
	host.Metrics = u.runtime
	// The pool (breakers, health) is fleet-shared; the client (session,
	// channel binding) is per-restore.
	fc := elide.NewFailoverClientFromPool(pool)
	defer fc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), u.timeout)
	defer cancel()
	prot := u.f.prots[0]
	encl, rt, err := prot.LaunchContext(ctx, host, fc, prot.LocalFiles())
	if err != nil {
		return nil, err, nil
	}
	defer encl.Destroy()
	outcome, err = elide.RestoreResilient(ctx, encl, rt, elide.RestoreOptions{
		MaxAttempts: 4,
		Backoff:     25 * time.Millisecond,
	})
	if err == nil {
		wlErr = u.f.progs[0].Workload(host, encl)
	}
	return outcome, err, wlErr
}
